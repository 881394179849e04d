import pytest

from entailqa.facts import FactBase, add_fact
from entailqa.llm import MockBackend
from entailqa.moe import MoeConfig, MoeParams


@pytest.fixture
def mock_backend():
    return MockBackend()


@pytest.fixture
def tiny_config():
    return MoeConfig(
        embed_dim=8,
        vocab_size=32,
        n_frg_experts=2,
        n_qa_experts=2,
        n_shared_experts=2,
        top_k=2,
        max_seq_len=64,
    )


@pytest.fixture
def tiny_params(tiny_config):
    return MoeParams.init(tiny_config, 3)


@pytest.fixture
def small_base():
    base = FactBase("q1")
    base = add_fact(base, "the falcon is fast.", "text", "e1")
    base = add_fact(base, "the harbor is deep.", "text", "e2")
    base = add_fact(base, "the mill is old.", "text", "e3")
    return base
