"""Seeded input generator for the benchmark.

From one seed it builds a small order-3 n-gram world and an N-sample QA
dataset over it, and writes everything a run needs:

* ``world.yaml``   the toy-backend fixture (what ``ambigkit`` parses)
* ``world.json``   the same table for the stub completions server
* ``dataset.jsonl`` the samples
* ``templates/``   the seven prompt templates, rewritten for the toy world

and keeps each sample's planned outcome for the correctness gate.

Shape of the world (fixed; it does not grow with N):

* A question is 8 tokens: ``w1 w2 w3 w4 a b c e`` with ``a`` from 4
  words, ``b`` from 6, ``c`` and ``e`` from 16 each. Every sample gets its
  own ``(c, e)`` pair, so questions are unique and N is at most
  ``MAX_SAMPLES``.
* The disambiguation prompt ends with the question, so the greedy rewrite
  ``r_c s_e t`` (3 tokens) is a function of the pair: rewrites are unique
  too, and no request body repeats across samples.
* The direct answer, the ambiguity-aware answer and the sample-rep spread
  depend on ``e``; the perceived-ambiguity verdict on ``(a, b, c)``; the
  clarification label (generated or fallback) on the pair through ``t``.

The mix is set by exact quotas (not by chance), so every seed gives the same
counts: calls and tokens per sample repeat exactly across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BEGIN, END = "<s>", "</s>"
FILLER = ("w1", "w2", "w3", "w4")
A_WORDS = tuple(f"a{i}" for i in range(4))
B_WORDS = tuple(f"b{i}" for i in range(6))
C_WORDS = tuple(f"c{i}" for i in range(16))
E_WORDS = tuple(f"e{i}" for i in range(16))
R_WORDS = tuple(f"r{i}" for i in range(16))
S_WORDS = tuple(f"s{i}" for i in range(16))
T_VALID, T_FALLBACK = "tv", "tf"
ANSWERS = tuple(f"ans{i}" for i in range(8))
CLARIFY_ANSWER = "unclear"
CUES = ("A:", "D:", "C:", "W:", "V:")
LABEL_WORDS = ("please", "clarify", "okey")
VERDICTS = ("ambiguous", "unambiguous")

QUESTION_TOKENS = len(FILLER) + 4

# e-token classes: the direct answer after "A:" is a clarification for
# CLARIFYING, one fixed answer for DETERMINISTIC, and a 3/5-2/5 split between
# two answers (greedy picks the first) for SPREAD.
N_CLARIFYING, N_SPREAD = 5, 4
MAX_SAMPLES = 200

EPSILON = 0.1
GAIN_MARGIN = 1e-3

# Outcome quotas as shares of N (category 5 takes the rounding remainder).
MIX = {"c1": 0.10, "c2": 0.25, "c3": 0.30, "c4": 0.25}
PERCEIVED_SHARE_OF_INCORRECT = 0.5
FALLBACK_SHARE_OF_PERCEIVED = 0.25

TEMPLATES = {
    "direct": "<question>\nA:",
    "disambiguation": "D: <question>",
    "clarification": "<ambiguous question>\n<disambiguation>\nC:",
    "ambiguity_aware": "<question>\nW:",
    "self_ask": "<question>\nA: <generated answer>\nV:",
    "ambiguate": "<question>\nG:",
    "ambiguation_validation": "<ambiguous generation>\nJ:",
}


def vocabulary() -> tuple[str, ...]:
    return (
        (BEGIN, END) + CUES + FILLER + A_WORDS + B_WORDS + C_WORDS + E_WORDS
        + R_WORDS + S_WORDS + (T_VALID, T_FALLBACK, CLARIFY_ANSWER) + ANSWERS
        + LABEL_WORDS + VERDICTS
    )


Row = list[tuple[str, int]]  # (token, integer weight); p = weight / sum


def _entropy(row: Row) -> float:
    total = sum(w for _, w in row)
    return math.fsum(-(w / total) * math.log(w / total) for _, w in row)


def _peaked(rng: random.Random, tokens: tuple[str, ...], peak: int) -> Row:
    """Weights 1..3 on every token plus ``peak`` on one of them: the larger
    the peak, the lower the entropy."""
    weights = [rng.randint(1, 3) for _ in tokens]
    weights[rng.randrange(len(tokens))] += peak
    return list(zip(tokens, weights))


@dataclass
class Sample:
    id: str
    question: str
    category: int
    gold_ambiguous: bool
    answers: list[str]
    e_class: str
    answer: str  # greedy direct answer
    ambig_aware: str
    self_ask_verdict: str
    perceived: bool | None = None  # set for incorrect samples only
    label_fallback: bool | None = None  # set for perceived-ambiguous only


@dataclass
class World:
    seed: int
    rows: dict[tuple[str, ...], Row] = field(default_factory=dict)
    samples: list[Sample] = field(default_factory=list)

    def direct_prompt(self, sample: Sample) -> str:
        return TEMPLATES["direct"].replace("<question>", sample.question)

    # -- writers ---------------------------------------------------------

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "world.yaml").write_text(self.fixture_yaml(), encoding="utf-8")
        (directory / "world.json").write_text(self.fixture_json(), encoding="utf-8")
        self.write_dataset(directory / "dataset.jsonl", self.samples)
        templates = directory / "templates"
        templates.mkdir(exist_ok=True)
        for name, body in TEMPLATES.items():
            (templates / f"{name}.txt").write_text(body + "\n", encoding="utf-8")

    @staticmethod
    def write_dataset(path: Path, samples: list[Sample]) -> None:
        lines = [
            json.dumps({"id": s.id, "question": s.question, "answers": s.answers,
                        "ambiguous": s.gold_ambiguous, "source": "benchworld"})
            for s in samples
        ]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def fixture_yaml(self) -> str:
        lines = [
            f"# ambigkit benchmark world, seed {self.seed}",
            "order: 3",
            f'begin_marker: "{BEGIN}"',
            f'end_marker: "{END}"',
            "vocabulary: " + json.dumps(list(vocabulary())),
            "rows:",
        ]
        for context, row in self.rows.items():
            total = sum(w for _, w in row)
            body = ", ".join(f'"{tok}": ' + (f'"{w}/{total}"' if total > 1 else "1")
                             for tok, w in row)
            lines.append(f'  "{" ".join(context)}": {{{body}}}')
        return "\n".join(lines) + "\n"

    def fixture_json(self) -> str:
        return json.dumps({
            "begin_marker": BEGIN,
            "end_marker": END,
            "vocabulary": list(vocabulary()),
            "rows": {" ".join(c): [[t, w] for t, w in row] for c, row in self.rows.items()},
        })


def _question_entropy_terms(rows, a: str, b: str, c: str) -> list[float]:
    tokens = list(FILLER) + [a, b, c, "?"]
    history = [BEGIN, BEGIN] + tokens
    return [_entropy(rows[(history[i], history[i + 1])]) for i in range(QUESTION_TOKENS)]


def _average(terms: list[float]) -> float:
    return math.fsum(terms) / len(terms)


def build(seed: int, n: int) -> World:
    """Generate the world and an n-sample dataset from ``seed``."""
    if not 1 <= n <= MAX_SAMPLES:
        raise ValueError(f"n must be in [1, {MAX_SAMPLES}], got {n}")
    rng = random.Random(f"benchworld:{seed}")
    world = World(seed=seed)
    rows = world.rows

    # Scoring rows shared by every question and rewrite.
    rows[(BEGIN, BEGIN)] = [(FILLER[0], 16)] + [(r, 1) for r in R_WORDS]
    rows[(BEGIN, FILLER[0])] = [(FILLER[1], 9), (FILLER[2], 1)]
    rows[(FILLER[0], FILLER[1])] = [(FILLER[2], 8), (FILLER[0], 1), (FILLER[3], 1)]
    rows[(FILLER[1], FILLER[2])] = [(FILLER[3], 7), (FILLER[0], 2), (FILLER[1], 1)]
    rows[(FILLER[2], FILLER[3])] = [(a, 1) for a in A_WORDS]
    for i, a in enumerate(A_WORDS):
        rows[(FILLER[3], a)] = _peaked(rng, B_WORDS, (0, 16, 60, 200)[i])
    for a in A_WORDS:
        for b in B_WORDS:
            rows[(a, b)] = _peaked(rng, C_WORDS, rng.choice((0, 12, 48, 200)))
    for b in B_WORDS:
        for c in C_WORDS:
            rows[(b, c)] = _peaked(rng, E_WORDS, rng.choice((0, 12, 48, 200)))

    # Answer behaviour per e token.
    e_order = list(E_WORDS)
    rng.shuffle(e_order)
    e_class = {}
    for i, e in enumerate(e_order):
        e_class[e] = ("clarifying" if i < N_CLARIFYING
                      else "spread" if i < N_CLARIFYING + N_SPREAD else "deterministic")
    answer_of: dict[str, str] = {}
    aware_of: dict[str, str] = {}
    for e in E_WORDS:
        if e_class[e] == "clarifying":
            answer_of[e] = CLARIFY_ANSWER
            rows[(e, "A:")] = [(CLARIFY_ANSWER, 1)]
        else:
            first, second = rng.sample(ANSWERS, 2)
            answer_of[e] = first
            rows[(e, "A:")] = ([(first, 3), (second, 2)] if e_class[e] == "spread"
                               else [(first, 1)])
        aware_of[e] = CLARIFY_ANSWER if rng.random() < 0.5 else answer_of[e]
        rows[(e, "W:")] = [(aware_of[e], 1)]
    verdict_of = {x: rng.choice(VERDICTS) for x in ANSWERS}
    verdict_of[CLARIFY_ANSWER] = "ambiguous"
    for x in ANSWERS + (CLARIFY_ANSWER,):
        rows[("A:", x)] = [(END, 1)]
        rows[("W:", x)] = [(END, 1)]
        rows[(x, "V:")] = [(verdict_of[x], 1)]
    for v in VERDICTS:
        rows[("V:", v)] = [(END, 1)]
    rows[(T_VALID, "C:")] = [("please", 1)]
    rows[("C:", "please")] = [("clarify", 1)]
    rows[("please", "clarify")] = [(END, 1)]
    rows[(T_FALLBACK, "C:")] = [("okey", 1)]
    rows[("C:", "okey")] = [(END, 1)]

    # Quotas.
    counts = {k: round(share * n) for k, share in MIX.items()}
    counts["c5"] = n - sum(counts.values())
    if counts["c5"] < 0:
        raise ValueError(f"n={n} too small for the mix")
    categories = [int(k[1]) for k, v in counts.items() for _ in range(v)]
    rng.shuffle(categories)
    incorrect = [i for i, cat in enumerate(categories) if cat in (2, 4, 5)]
    rng.shuffle(incorrect)
    n_perceived = round(PERCEIVED_SHARE_OF_INCORRECT * len(incorrect))
    perceived = set(incorrect[:n_perceived])
    perceived_order = sorted(perceived)
    rng.shuffle(perceived_order)
    fallback = set(perceived_order[: round(FALLBACK_SHARE_OF_PERCEIVED * n_perceived)])

    # (c, e) pairs, drawn without replacement from the class pools.
    pools = {
        "clarifying": [(c, e) for c in C_WORDS for e in E_WORDS if e_class[e] == "clarifying"],
        "answering": [(c, e) for c in C_WORDS for e in E_WORDS if e_class[e] != "clarifying"],
    }
    for pool in pools.values():
        rng.shuffle(pool)
    # Each rewrite's second-position row is tuned so that its c can take
    # both verdicts: the rewrite entropy sits at the median question entropy
    # of that c, less epsilon.
    verdict_combos = {}
    h_first = _entropy(rows[(BEGIN, BEGIN)])
    for c in C_WORDS:
        h_questions = sorted(
            _average(_question_entropy_terms(rows, a, b, c)) for a in A_WORDS for b in B_WORDS
        )
        target = h_questions[len(h_questions) // 2] - EPSILON
        base = [rng.randint(1, 3) for _ in S_WORDS]
        peak_at = rng.randrange(len(S_WORDS))

        def rewrite_row(peak: int) -> Row:
            weights = list(base)
            weights[peak_at] += peak
            return list(zip(S_WORDS, weights))

        best = min(range(0, 400), key=lambda p: abs(
            _average([h_first, _entropy(rewrite_row(p)), 0.0]) - target))
        r = R_WORDS[C_WORDS.index(c)]
        rows[(BEGIN, r)] = rewrite_row(best)
        h_rewrite = _average([h_first, _entropy(rows[(BEGIN, r)]), 0.0])
        above, below = [], []
        for a in A_WORDS:
            for b in B_WORDS:
                gain = _average(_question_entropy_terms(rows, a, b, c)) - h_rewrite
                if gain > EPSILON + GAIN_MARGIN:
                    above.append((a, b))
                elif gain < EPSILON - GAIN_MARGIN:
                    below.append((a, b))
        if not above or not below:
            raise RuntimeError(f"seed {seed}: c={c} cannot take both verdicts")
        verdict_combos[c] = (above, below)

    for i, category in enumerate(categories):
        pool = pools["clarifying" if category in (1, 5) else "answering"]
        c, e = pool.pop()
        r, s = R_WORDS[C_WORDS.index(c)], S_WORDS[E_WORDS.index(e)]
        t = T_FALLBACK if i in fallback else (
            T_VALID if i in perceived else rng.choice((T_VALID, T_FALLBACK)))
        rows[(c, e)] = [(r, 1)]
        rows[(e, r)] = [(s, 1)]
        rows[(r, s)] = [(t, 1)]
        rows[(s, t)] = [(END, 1)]
        above, below = verdict_combos[c]
        if category in (2, 4, 5):
            a, b = rng.choice(above if i in perceived else below)
        else:
            a, b = rng.choice(above + below)
        answer = answer_of[e]
        gold_ambiguous = category in (1, 2)
        answers = [answer] if category == 3 else [f"gold answer {i}"]
        world.samples.append(Sample(
            id=f"q{i:04d}",
            question=" ".join(FILLER + (a, b, c, e)),
            category=category,
            gold_ambiguous=gold_ambiguous,
            answers=answers,
            e_class=e_class[e],
            answer=answer,
            ambig_aware=aware_of[e],
            self_ask_verdict=verdict_of[answer],
            perceived=(i in perceived) if category in (2, 4, 5) else None,
            label_fallback=(i in fallback) if i in perceived else None,
        ))
    # Rewrite-chain rows exist for every pair, used or not, so the fixture
    # is the same size for every N.
    for c in C_WORDS:
        for e in E_WORDS:
            r, s = R_WORDS[C_WORDS.index(c)], S_WORDS[E_WORDS.index(e)]
            rows.setdefault((c, e), [(r, 1)])
            rows.setdefault((e, r), [(s, 1)])
            if (r, s) not in rows:
                rows[(r, s)] = [(T_VALID, 1)]
    for s in S_WORDS:
        for t in (T_VALID, T_FALLBACK):
            rows.setdefault((s, t), [(END, 1)])
    return world


def digest_rank(seed: int, texts: list[str]) -> list[str]:
    """``texts`` ordered by the SHA-256 of (seed, text): a seeded, stable
    choice of which requests a fault schedule hits."""
    return sorted(texts, key=lambda t: hashlib.sha256(f"{seed}:{t}".encode()).digest())
