from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ambigkit.backend import GenerationParams
from ambigkit.corpus import load_dataset, load_templates
from ambigkit.toy import ToyBackend, load_ngram_table

FIXTURES = Path(__file__).parent / "fixtures"
TABLES = FIXTURES / "tables"


@pytest.fixture(scope="session")
def corpus_table():
    return load_ngram_table(TABLES / "corpus_world.yaml")


@pytest.fixture(scope="session")
def corpus_backend(corpus_table) -> ToyBackend:
    return ToyBackend(corpus_table)


@pytest.fixture(scope="session")
def corpus_samples():
    return load_dataset(FIXTURES / "corpus.jsonl")


@pytest.fixture(scope="session")
def toy_templates():
    return load_templates(FIXTURES / "toy_templates")


@pytest.fixture(scope="session")
def greedy_params() -> GenerationParams:
    return GenerationParams(max_tokens=8, temperature=0.0)


def table_path(name: str) -> Path:
    return TABLES / f"{name}.yaml"
