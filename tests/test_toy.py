from __future__ import annotations

import math

import pytest

from ambigkit.backend import FinishReason, GenerationParams
from ambigkit.errors import DataIntegrityError, NormalizationError, VocabularyError
from ambigkit.toy import NgramTable, ToyBackend, load_ngram_table

from conftest import table_path


@pytest.fixture(scope="module")
def bigram():
    return load_ngram_table(table_path("bigram_ab"))


def test_stored_vector_verbatim(bigram):
    vector = bigram.next_distribution(("a",))
    by_token = dict(zip(bigram.vocabulary, vector))
    assert by_token == {"<s>": 0.0, "a": 0.1, "b": 0.6, "</s>": 0.3}


def test_unseen_context_uniform_fallback(bigram):
    vector = bigram.next_distribution(("</s>",))
    assert vector == (0.25, 0.25, 0.25, 0.25)


def test_uniform_four_entropy():
    table = load_ngram_table(table_path("uniform4"))
    vector = table.next_distribution(("a",))
    entropy = -math.fsum(p * math.log(p) for p in vector)
    assert entropy == pytest.approx(math.log(4), abs=1e-12)


def test_out_of_vocabulary_context(bigram):
    with pytest.raises(VocabularyError, match="zebra"):
        bigram.next_distribution(("zebra",))


def test_vector_must_normalize():
    with pytest.raises(NormalizationError):
        NgramTable(
            vocabulary=("<s>", "a", "</s>"),
            order=2,
            begin_marker="<s>",
            end_marker="</s>",
            conditional_probs={("a",): (0.0, 0.5, 0.4)},
        )


def test_context_length_must_match_order():
    with pytest.raises(DataIntegrityError):
        NgramTable(
            vocabulary=("<s>", "a", "</s>"),
            order=3,
            begin_marker="<s>",
            end_marker="</s>",
            conditional_probs={("a",): (0.0, 0.5, 0.5)},
        )


def test_full_top_k_has_zero_tail(bigram):
    backend = ToyBackend(bigram)  # top_k = |V|
    result = backend.score("a b", "")
    for dist in result.tokens:
        assert dist.tail_mass == 0.0


def test_top_k_two_tail_mass():
    backend = ToyBackend(load_ngram_table(table_path("skewed")), top_k=2)
    # First position distribution is (0.5, 0.3, 0.15, 0.05).
    dist = backend.score("p", "").tokens[0]
    assert len(dist.top_alternatives) == 2
    assert dist.tail_mass == pytest.approx(0.2, abs=1e-12)


def test_greedy_tie_breaks_by_vocabulary_order():
    backend = ToyBackend(load_ngram_table(table_path("greedy_tie")))
    # "zz" precedes "aa" in the vocabulary, so it wins the 0.5/0.5 tie.
    result = backend.generate("t", GenerationParams(max_tokens=3))
    assert result.text == "zz"
    assert result.finish_reason is FinishReason.STOP


def test_greedy_modal_chain_stops():
    backend = ToyBackend(load_ngram_table(table_path("arithmetic")))
    result = backend.generate("2+2=", GenerationParams(max_tokens=8))
    assert result.text == "4"
    assert result.finish_reason is FinishReason.STOP


def test_empty_prompt_rejected(corpus_backend):
    with pytest.raises(ValueError):
        corpus_backend.generate("", GenerationParams())


def test_seeded_sampling_deterministic():
    backend = ToyBackend(load_ngram_table(table_path("bigram_ab")))
    params = GenerationParams(max_tokens=6, temperature=1.0, seed=7)
    first = backend.generate("a", params)
    second = backend.generate("a", params)
    assert first.text == second.text
    assert [t.token_logprob for t in first.tokens] == [
        t.token_logprob for t in second.tokens
    ]


def test_generation_token_texts_concatenate_to_text():
    backend = ToyBackend(load_ngram_table(table_path("onehot_chain")))
    result = backend.generate("go", GenerationParams(max_tokens=8))
    assert result.text == "left then right"
    assert "".join(t.token_text for t in result.tokens) == result.text


def test_score_round_trips_generation_logprobs(bigram):
    backend = ToyBackend(bigram)
    params = GenerationParams(max_tokens=5, temperature=1.0, seed=3)
    generated = backend.generate("a", params)
    assert generated.text
    scored = backend.score(generated.text, "a")
    assert scored.token_count == len(generated.tokens)
    for g, s in zip(generated.tokens, scored.tokens):
        assert s.token_logprob == g.token_logprob
        assert s.top_alternatives == g.top_alternatives
        assert s.tail_mass == g.tail_mass


def test_score_token_count_matches_tokenizer(corpus_backend):
    assert corpus_backend.score("q1a q1b", "").token_count == 2
    assert corpus_backend.score("q1a", "").token_count == 1


def test_score_reads_tables_directly(bigram):
    result = ToyBackend(bigram).score("a b", "")
    assert result.token_count == 2
    assert result.tokens[0].token_logprob == pytest.approx(math.log(0.5), abs=1e-15)
    assert result.tokens[1].token_logprob == pytest.approx(math.log(0.6), abs=1e-15)


def test_scoring_is_pure(corpus_backend):
    a = corpus_backend.score("q3a q3b", "")
    b = corpus_backend.score("q3a q3b", "")
    assert a == b


def test_zero_probability_continuation_rejected(bigram):
    backend = ToyBackend(bigram)
    with pytest.raises(NormalizationError):
        backend.score("<s>", "a")  # p(<s> | a) = 0


def test_stop_sequence_token(corpus_backend):
    params = GenerationParams(max_tokens=8, stop_sequences=("ans1",))
    result = corpus_backend.generate("Q: q1a q1b\nA:", params)
    assert result.text == ""
    assert result.finish_reason is FinishReason.STOP


def test_max_tokens_exhaustion_reports_length():
    backend = ToyBackend(load_ngram_table(table_path("onehot_chain")))
    result = backend.generate("go", GenerationParams(max_tokens=2))
    assert result.text == "left then"
    assert result.finish_reason is FinishReason.LENGTH


def test_top_k_must_fit_vocabulary(bigram):
    with pytest.raises(ValueError):
        ToyBackend(bigram, top_k=99)


def test_fraction_strings_parse_exactly(corpus_table):
    vector = corpus_table.next_distribution(("<s>", "q3a"))
    assert sorted(p for p in vector if p > 0) == [0.25, 0.25, 0.25, 0.25]
