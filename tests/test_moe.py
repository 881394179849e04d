import math
import platform
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from entailqa.cli import _keep_freed_heap
from entailqa.dataset import RunConfig
from entailqa.errors import LengthMismatch, NonFiniteLoss, SequenceTooLong
from entailqa.facts import FactBase, add_fact
from entailqa.llm import MockBackend
from entailqa.moe import (
    EOS_ID,
    GATE_A,
    GATE_B,
    MICRO_BATCH,
    MoeConfig,
    MoeParams,
    TrainItem,
    answer_token_targets,
    backward_and_step,
    batch_gradients,
    batch_loss,
    build_lexicon,
    decode_answer,
    encode,
    fact_features,
    frg_forward,
    greedy_answer_ids,
    losses,
    moe_forward,
    qa_forward,
    route,
    token_bucket,
    token_ids,
    tokenize,
)
from entailqa.pipeline import build_train_items, stage1_states
from entailqa.synth import random_sentence, synthetic_examples


def small_batch(vocab=32):
    return [
        TrainItem(
            "the falcon is fast",
            "what is fast?",
            ("the falcon is fast.", "the harbor is deep."),
            (0, 1),
            answer_token_targets("fast", vocab),
        ),
        TrainItem(
            "the harbor is deep and wide",
            "how deep is it?",
            ("the harbor is deep.", "the mill is old.", "the reef is far."),
            (0,),
            answer_token_targets("deep", vocab),
        ),
    ]


class TestTokens:
    def test_bucket_range_and_determinism(self):
        for word in ("falcon", "harbor", "x", "42"):
            b = token_bucket(word, 32)
            assert 1 <= b < 32
            assert b == token_bucket(word, 32)

    def test_eos_reserved(self):
        assert EOS_ID == 0
        assert all(i != EOS_ID for i in token_ids("some words here", 32))

    def test_answer_targets_end_with_eos(self):
        targets = answer_token_targets("brown horse", 64)
        assert targets[-1] == EOS_ID
        assert len(targets) == 3

    def test_lexicon_decode_roundtrip(self):
        lexicon = build_lexicon(["the falcon is fast."], 4096)
        ids = token_ids("falcon fast", 4096) + [EOS_ID, 7]
        assert decode_answer(ids, lexicon) == "falcon fast"


class TestEncode:
    def test_single_token_shape(self, tiny_params):
        enc = encode(tiny_params, "falcon", "")
        assert enc.shape == (1, 8)

    def test_deterministic(self, tiny_params):
        a = encode(tiny_params, "tree text here", "and a question?")
        b = encode(tiny_params, "tree text here", "and a question?")
        assert np.array_equal(a, b)

    def test_concatenates_tree_then_question(self, tiny_params):
        enc = encode(tiny_params, "one two", "three?")
        assert len(enc) == 3

    def test_too_long(self, tiny_params):
        with pytest.raises(SequenceTooLong):
            encode(tiny_params, "word " * 100, "")

    def test_qa_decoder_weights_isolated(self, tiny_config):
        a = MoeParams.init(tiny_config, 3)
        b = MoeParams.init(tiny_config, 3)
        b.vocab_out[:] = np.random.default_rng(0).normal(size=b.vocab_out.shape)
        b.qa_q[:] = 0.0
        ea = encode(a, "tree", "question?")
        eb = encode(b, "tree", "question?")
        assert np.array_equal(ea, eb)


class TestFactFeatures:
    def test_single_token_fact_equals_token_encoding(self, tiny_params):
        base = add_fact(FactBase("q"), "falcon", "text", "e1")
        ff = fact_features(tiny_params, base)
        enc = encode(tiny_params, "falcon", "")
        assert np.allclose(ff[0], enc[0])

    def test_mean_of_two_tokens(self, tiny_params):
        base = add_fact(FactBase("q"), "falcon harbor", "text", "e1")
        ff = fact_features(tiny_params, base)
        enc = encode(tiny_params, "falcon harbor", "")
        assert np.allclose(ff[0], enc.mean(axis=0))

    def test_row_per_fact(self, tiny_params, small_base):
        assert fact_features(tiny_params, small_base).shape == (3, 8)

    def test_empty_base_rejected(self, tiny_params):
        with pytest.raises(ValueError):
            fact_features(tiny_params, FactBase("q"))


class TestRoute:
    def _force_logits(self, params, gate, logits):
        """One-hot token + a doctored gate column makes the logits exact."""
        matrix = params.gate_a if gate == GATE_A else params.gate_b
        matrix[:] = 0.0
        matrix[:, 0] = logits
        x = np.zeros((1, params.config.embed_dim))
        x[0, 0] = 1.0
        return x

    def test_softmax_oracle(self, tiny_params, tiny_config):
        logits = [2.0, 1.0, 0.5, -1.0]
        x = self._force_logits(tiny_params, GATE_A, logits)
        decision = route(tiny_params, tiny_config, x, GATE_A)
        exps = [math.exp(v) for v in logits]
        total = sum(exps)
        assert decision.pool_positions[0].tolist() == [0, 1]
        assert decision.values[0, 0] == pytest.approx(exps[0] / total, abs=1e-12)
        assert decision.values[0, 1] == pytest.approx(exps[1] / total, abs=1e-12)
        # rounded anchors for the selected probabilities
        assert decision.values[0, 0] == pytest.approx(0.6095, abs=5e-5)
        assert decision.values[0, 1] == pytest.approx(0.2242, abs=5e-5)

    def test_zero_logits_tie_break(self, tiny_params, tiny_config):
        x = self._force_logits(tiny_params, GATE_A, [0.0, 0.0, 0.0, 0.0])
        decision = route(tiny_params, tiny_config, x, GATE_A)
        assert decision.pool_positions[0].tolist() == [0, 1]
        assert np.allclose(decision.values[0], [0.25, 0.25])

    def test_full_pool_mass(self, tiny_config, tiny_params):
        config = MoeConfig(
            embed_dim=8,
            vocab_size=32,
            n_frg_experts=2,
            n_qa_experts=2,
            n_shared_experts=2,
            top_k=4,
            max_seq_len=64,
        )
        params = MoeParams.init(config, 3)
        x = np.random.default_rng(1).normal(size=(5, 8))
        decision = route(params, config, x, GATE_A)
        assert np.allclose(decision.values.sum(axis=1), 1.0)

    def test_pools_are_disjoint_from_other_task(self, tiny_params, tiny_config):
        x = np.random.default_rng(2).normal(size=(50, 8))
        a = route(tiny_params, tiny_config, x, GATE_A)
        b = route(tiny_params, tiny_config, x, GATE_B)
        assert not set(a.indices.ravel().tolist()) & set(tiny_config.qa_expert_ids)
        assert not set(b.indices.ravel().tolist()) & set(tiny_config.frg_expert_ids)

    def test_renormalized_values_sum_to_one(self):
        config = MoeConfig(
            embed_dim=8,
            vocab_size=32,
            n_frg_experts=2,
            n_qa_experts=2,
            n_shared_experts=2,
            renormalize_topk=True,
        )
        params = MoeParams.init(config, 3)
        x = np.random.default_rng(3).normal(size=(4, 8))
        decision = route(params, config, x, GATE_A)
        assert np.allclose(decision.values.sum(axis=1), 1.0)


def _make_identity_experts(params, expert_ids, eps=1e-4):
    d = params.config.embed_dim
    for e in expert_ids:
        params.expert_w1[e][:] = 0.0
        params.expert_w1[e][:d, :] = eps * np.eye(d)
        params.expert_b1[e][:] = 0.0
        params.expert_w2[e][:] = 0.0
        params.expert_w2[e][:, :d] = np.eye(d) / eps
        params.expert_b2[e][:] = 0.0


class TestMoeForward:
    def test_identity_expert_algebra(self):
        config = MoeConfig(
            embed_dim=8,
            vocab_size=32,
            n_frg_experts=2,
            n_qa_experts=1,
            n_shared_experts=1,
        )
        params = MoeParams.init(config, 5)
        _make_identity_experts(params, range(config.n_experts))
        # pool A = (0, 1, 3); force softmax (0.6, 0.3, 0.1) via a one-hot token
        params.gate_a[:] = 0.0
        params.gate_a[:, 0] = [math.log(0.6), math.log(0.3), math.log(0.1)]
        x = np.zeros((1, 8))
        x[0, 0] = 1.0
        out = moe_forward(params, config, x, GATE_A)
        assert np.allclose(out, 1.9 * x, atol=1e-6)
        mix_only = out - x
        assert np.allclose(mix_only, 0.9 * x, atol=1e-6)

    def test_residual_identity(self, tiny_params, tiny_config):
        x = np.random.default_rng(4).normal(size=(6, 8))
        out = moe_forward(tiny_params, tiny_config, x, GATE_A)
        decision = route(tiny_params, tiny_config, x, GATE_A)
        # independent recomputation of the expert mix
        mix = np.zeros_like(x)
        for t in range(x.shape[0]):
            for k in range(tiny_config.top_k):
                e = int(decision.indices[t, k])
                h = np.tanh(tiny_params.expert_w1[e] @ x[t] + tiny_params.expert_b1[e])
                o = tiny_params.expert_w2[e] @ h + tiny_params.expert_b2[e]
                mix[t] += decision.values[t, k] * o
        assert np.allclose(out - x, mix, atol=1e-12)

    def test_disjoint_pools_differ_shared_only_matches(self):
        config = MoeConfig(
            embed_dim=8,
            vocab_size=32,
            n_frg_experts=2,
            n_qa_experts=2,
            n_shared_experts=2,
        )
        params = MoeParams.init(config, 6)
        x = np.zeros((1, 8))
        x[0, 0] = 1.0
        # task experts dominate: disjoint selections, different outputs
        params.gate_a[:] = 0.0
        params.gate_a[:, 0] = [9.0, 8.0, 0.0, 0.0]
        params.gate_b[:] = 0.0
        params.gate_b[:, 0] = [9.0, 8.0, 0.0, 0.0]
        out_a = moe_forward(params, config, x, GATE_A)
        out_b = moe_forward(params, config, x, GATE_B)
        assert not np.allclose(out_a, out_b)
        # shared experts dominate: identical selections and values
        params.gate_a[:, 0] = [0.0, 0.0, 9.0, 8.0]
        params.gate_b[:, 0] = [0.0, 0.0, 9.0, 8.0]
        out_a = moe_forward(params, config, x, GATE_A)
        out_b = moe_forward(params, config, x, GATE_B)
        assert np.allclose(out_a, out_b)

    def test_zero_row_passes_bias_path(self, tiny_params, tiny_config):
        tiny_params.expert_b1[:] = 0.3
        tiny_params.expert_b2[:] = 0.1
        x = np.zeros((1, 8))
        out = moe_forward(tiny_params, tiny_config, x, GATE_A)
        decision = route(tiny_params, tiny_config, x, GATE_A)
        expected = np.zeros(8)
        for k in range(tiny_config.top_k):
            e = int(decision.indices[0, k])
            h = np.tanh(tiny_params.expert_b1[e])
            expected += decision.values[0, k] * (
                tiny_params.expert_w2[e] @ h + tiny_params.expert_b2[e]
            )
        assert np.allclose(out[0], expected, atol=1e-12)


class TestHeads:
    def test_frg_shapes(self, tiny_params, tiny_config):
        seq = np.random.default_rng(7).normal(size=(4, 8))
        facts = np.random.default_rng(8).normal(size=(1, 8))
        scores = frg_forward(tiny_params, seq, facts, 1)
        assert scores.shape == (1, 1)

    def test_softmax_shift_invariance_in_loss(self, tiny_params):
        scores = np.array([[1.0, 2.0, 0.5]])
        l1, _, _ = losses(scores, [1], np.zeros((1, 4)), [0])
        l2, _, _ = losses(scores + 7.0, [1], np.zeros((1, 4)), [0])
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_colinear_fact_wins(self, tiny_params, tiny_config):
        seq = np.random.default_rng(9).normal(size=(5, 8))
        tiny_params.frg_q2[:] = np.eye(8)
        tiny_params.frg_k2[:] = np.eye(8)
        probe = frg_forward(tiny_params, seq, np.zeros((1, 8)), 1)
        # reconstruct ctx direction: score with identity projections is ctx @ ff.T
        rng = np.random.default_rng(10)
        ctx_dir = np.zeros(8)
        ctx_dir[:] = 0.0
        # recover ctx by probing with basis fact vectors
        basis = np.eye(8)
        scores = frg_forward(tiny_params, seq, basis, 1) * math.sqrt(8)
        ctx_dir = scores[0]
        facts = np.vstack([rng.normal(size=8) * 0.05, ctx_dir / np.linalg.norm(ctx_dir)])
        out = frg_forward(tiny_params, seq, facts, 1)
        assert int(np.argmax(out[0])) == 1

    def test_qa_shapes(self, tiny_params, tiny_config):
        seq = np.random.default_rng(11).normal(size=(4, 8))
        logits = qa_forward(tiny_params, seq, 1)
        assert logits.shape == (1, 32)

    def test_qa_ignores_fact_features(self, tiny_params):
        seq = np.random.default_rng(12).normal(size=(4, 8))
        before = qa_forward(tiny_params, seq, 2)
        tiny_params.frg_k2[:] = 123.0  # fact-side projection, QA must not care
        after = qa_forward(tiny_params, seq, 2)
        assert np.array_equal(before, after)

    def test_qa_sensitive_to_sequence(self, tiny_params):
        rng = np.random.default_rng(13)
        seq = rng.normal(size=(4, 8))
        before = qa_forward(tiny_params, seq, 2)
        after = qa_forward(tiny_params, seq + 0.1, 2)
        assert not np.allclose(before, after)

    def test_step_count_bounds(self, tiny_params):
        seq = np.zeros((2, 8))
        with pytest.raises(ValueError):
            frg_forward(tiny_params, seq, np.zeros((1, 8)), 0)
        with pytest.raises(SequenceTooLong):
            qa_forward(tiny_params, seq, 1000)


class TestLosses:
    def test_uniform_qa_is_log_vocab(self):
        vocab = 32
        logits = np.zeros((3, vocab))
        _, l_qa, _ = losses(np.zeros((1, 2)), [0], logits, [4, 9, 0])
        assert l_qa == pytest.approx(math.log(vocab), abs=1e-9)

    def test_saturated_margin_vanishes(self):
        scores = np.array([[500.0, 0.0, 0.0]])
        l_frg, _, _ = losses(scores, [0], np.zeros((1, 2)), [0])
        assert l_frg == pytest.approx(0.0, abs=1e-12)

    def test_total_is_exact_sum(self):
        rng = np.random.default_rng(14)
        frg = rng.normal(size=(3, 5))
        qa = rng.normal(size=(2, 7))
        l_frg, l_qa, total = losses(frg, [0, 4, 2], qa, [6, 1])
        assert total == l_frg + l_qa

    def test_double_precision_recompute(self):
        rng = np.random.default_rng(15)
        frg = rng.normal(size=(4, 6))
        qa = rng.normal(size=(3, 9))
        frg_gold, qa_gold = [2, 0, 5, 1], [8, 3, 0]
        l_frg, l_qa, _ = losses(frg, frg_gold, qa, qa_gold)

        def nll(scores, golds):
            total = 0.0
            for row, g in zip(scores, golds):
                z = sum(math.exp(v) for v in row)
                total -= math.log(math.exp(row[g]) / z)
            return total / len(golds)

        assert l_frg == pytest.approx(nll(frg, frg_gold), abs=1e-12)
        assert l_qa == pytest.approx(nll(qa, qa_gold), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            losses(np.zeros((2, 3)), [0], np.zeros((1, 2)), [0])
        with pytest.raises(LengthMismatch):
            losses(np.zeros((1, 3)), [7], np.zeros((1, 2)), [0])


def relative_errors(params, config, batch, grads, eps=1e-5, per_block=None):
    """Worst relative gap between analytic and centered-difference gradients,
    over every entry or over ``per_block`` evenly spaced entries of each block."""
    worst = 0.0
    for name, arr in params.blocks():
        flat = arr.ravel()
        gflat = grads[name].ravel()
        count = flat.size if per_block is None else min(per_block, flat.size)
        for i in np.linspace(0, flat.size - 1, num=count, dtype=int):
            orig = flat[i]
            flat[i] = orig + eps
            up = batch_loss(params, config, batch)
            flat[i] = orig - eps
            down = batch_loss(params, config, batch)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            denom = max(1e-6, abs(fd), abs(gflat[i]))
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


class TestBackward:
    def test_gradcheck_subset(self, tiny_params, tiny_config):
        """Fast spot-check on a few blocks; the full sweep runs in acceptance."""
        batch = small_batch()
        loss, grads = batch_gradients(tiny_params, tiny_config, batch)
        assert math.isfinite(loss)
        eps = 1e-5
        for name in ("gate_a", "gate_b", "enc_b", "frg_q2", "vocab_out", "expert_w1"):
            arr = getattr(tiny_params, name)
            flat = arr.ravel()
            gflat = grads[name].ravel()
            idx = np.linspace(0, flat.size - 1, num=min(24, flat.size), dtype=int)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                up = batch_loss(tiny_params, tiny_config, batch)
                flat[i] = orig - eps
                down = batch_loss(tiny_params, tiny_config, batch)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                denom = max(1e-6, abs(fd), abs(gflat[i]))
                assert abs(fd - gflat[i]) / denom < 1e-4, (name, i)

    def test_gradcheck_renormalized_routing(self):
        config = MoeConfig(
            embed_dim=8,
            vocab_size=32,
            n_frg_experts=2,
            n_qa_experts=2,
            n_shared_experts=2,
            max_seq_len=16,
            renormalize_topk=True,
        )
        params = MoeParams.init(config, 3)
        batch = small_batch()[:1]
        _, grads = batch_gradients(params, config, batch)
        eps = 1e-5
        for name in ("gate_a", "gate_b", "enc_w"):
            arr = getattr(params, name)
            flat = arr.ravel()
            gflat = grads[name].ravel()
            for i in range(0, flat.size, max(1, flat.size // 16)):
                orig = flat[i]
                flat[i] = orig + eps
                up = batch_loss(params, config, batch)
                flat[i] = orig - eps
                down = batch_loss(params, config, batch)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                denom = max(1e-6, abs(fd), abs(gflat[i]))
                assert abs(fd - gflat[i]) / denom < 1e-4, (name, i)

    def test_zero_learning_rate_keeps_params(self, tiny_params, tiny_config):
        before = {name: arr.copy() for name, arr in tiny_params.blocks()}
        _, loss = backward_and_step(tiny_params, tiny_config, small_batch(), 0.0)
        assert math.isfinite(loss)
        for name, arr in tiny_params.blocks():
            assert np.array_equal(arr, before[name]), name

    def test_step_changes_params_and_reduces_loss(self, tiny_params, tiny_config):
        batch = small_batch()
        start = batch_loss(tiny_params, tiny_config, batch)
        for _ in range(30):
            _, loss = backward_and_step(tiny_params, tiny_config, batch, 1e-2)
        end = batch_loss(tiny_params, tiny_config, batch)
        assert end < 0.5 * start

    def test_non_finite_loss_raises(self, tiny_params, tiny_config):
        tiny_params.vocab_out[:] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLoss):
                backward_and_step(tiny_params, tiny_config, small_batch(), 1e-3)

    def test_unselected_experts_receive_zero_gradient(self, tiny_config):
        params = MoeParams.init(tiny_config, 3)
        # pin every token to pool positions 0 and 1 of each gate
        params.gate_a[:] = 0.0
        params.gate_b[:] = 0.0
        params.gate_a[0, :] = 5.0
        params.gate_a[1, :] = 4.0
        params.gate_b[0, :] = 5.0
        params.gate_b[1, :] = 4.0
        # keep encodings strictly positive so the pin holds for every token
        params.enc_b[:] = 2.0
        params.enc_w[:] = 0.0
        _, grads = batch_gradients(params, tiny_config, small_batch())
        pool_a, pool_b = tiny_config.pool(GATE_A), tiny_config.pool(GATE_B)
        selected = {pool_a[0], pool_a[1], pool_b[0], pool_b[1]}
        for e in range(tiny_config.n_experts):
            touched = np.any(grads["expert_w1"][e]) or np.any(grads["expert_w2"][e])
            assert touched == (e in selected), e


class TestOptimizerAndState:
    def test_checkpoint_roundtrip(self, tiny_params):
        state = tiny_params.to_state_dict()
        again = MoeParams.from_state_dict(state)
        for name, arr in tiny_params.blocks():
            assert np.array_equal(arr, getattr(again, name)), name
        assert again.config == tiny_params.config

    def test_greedy_decode(self):
        logits = np.array([[0.0, 3.0, 1.0], [0.5, 0.1, 0.2], [9.0, 0.0, 0.0]])
        assert greedy_answer_ids(logits) == [1, 0, 0]

    def test_tokenize_rule(self):
        assert tokenize("The Falcon, 42 times!") == ["the", "falcon", "42", "times"]


def seeded_items(n, vocab, seed=0):
    """Items carrying both targets; some facts have no tokens at all."""
    rng = random.Random(seed)
    items = []
    for _ in range(n):
        facts = tuple(
            random_sentence(rng) if rng.random() < 0.9 else "--"
            for _ in range(rng.randint(1, 4))
        )
        tree = " ".join(random_sentence(rng) for _ in range(rng.randint(1, 3)))
        frg = tuple(rng.randrange(len(facts)) for _ in range(rng.randint(1, 3)))
        answer = random_sentence(rng).split()[rng.randint(0, 2)]
        items.append(
            TrainItem(tree, random_sentence(rng), facts, frg, answer_token_targets(answer, vocab))
        )
    return items


def split_batch(items, n_frg):
    """The training step's batch shape: retrieval-only items, then answer-only."""
    return [i.without_qa() for i in items[:n_frg]] + [i.without_frg() for i in items[n_frg:]]


@pytest.fixture
def step_config():
    return MoeConfig(
        embed_dim=8,
        vocab_size=64,
        n_frg_experts=2,
        n_qa_experts=2,
        n_shared_experts=2,
        max_seq_len=64,
    )


class TestBatchedStep:
    @pytest.mark.parametrize("n_frg", [32, 44])
    def test_batch_equals_sum_of_single_items(self, step_config, n_frg):
        """Padding, masking and grouped dispatch over 44 items give the
        weighted sum of the items' own gradients."""
        params = MoeParams.init(step_config, 4)
        batch = split_batch(seeded_items(44, 64, seed=n_frg), n_frg)
        assert len(batch) > MICRO_BATCH
        loss, grads = batch_gradients(params, step_config, batch)
        weight = {"frg": 1.0 / n_frg, "qa": 1.0 / (44 - n_frg) if n_frg < 44 else 0.0}
        expected_loss, expected = 0.0, params.zero_grads()
        for item in batch:
            w = weight["frg"] if item.frg_targets is not None else weight["qa"]
            item_loss, item_grads = batch_gradients(params, step_config, [item])
            expected_loss += w * item_loss
            for name, g in item_grads.items():
                expected[name] += w * g
        assert loss == pytest.approx(expected_loss, abs=1e-12)
        for name, g in grads.items():
            np.testing.assert_allclose(g, expected[name], rtol=0, atol=1e-12, err_msg=name)

    def test_bit_identical_for_any_thread_count(self, step_config):
        params = MoeParams.init(step_config, 4)
        batch = split_batch(seeded_items(44, 64, seed=1), 32)
        ref_loss, ref = batch_gradients(params, step_config, batch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (1, 2, 4):
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    loss, grads = batch_gradients(params, step_config, batch, pool)
                assert loss == ref_loss
                for name, g in grads.items():
                    assert np.array_equal(g, ref[name]), (workers, name)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_gradcheck_across_micro_batches(self, renormalize):
        config = MoeConfig(
            embed_dim=8,
            vocab_size=64,
            n_frg_experts=2,
            n_qa_experts=2,
            n_shared_experts=2,
            max_seq_len=64,
            renormalize_topk=renormalize,
        )
        params = MoeParams.init(config, 5)
        batch = seeded_items(MICRO_BATCH + 3, 64, seed=7)
        _, grads = batch_gradients(params, config, batch)
        assert relative_errors(params, config, batch, grads, per_block=10) < 1e-4

    def test_errors_raised_from_the_batched_path(self, step_config):
        params = MoeParams.init(step_config, 4)
        items = seeded_items(MICRO_BATCH + 2, 64, seed=2)
        too_long = TrainItem("word " * 80, "why?", ("a fact.",), (0,), None)
        bad_fact = TrainItem("tree", "why?", ("a fact.",), (1,), None)
        bad_token = TrainItem("tree", "why?", ("a fact.",), None, (64,))
        for bad, error in (
            (too_long, SequenceTooLong),
            (bad_fact, LengthMismatch),
            (bad_token, LengthMismatch),
        ):
            batch = items + [bad]
            with pytest.raises(error):
                batch_gradients(params, step_config, batch)
            with ThreadPoolExecutor(max_workers=2) as pool, pytest.raises(error):
                batch_gradients(params, step_config, batch, pool)
            with pytest.raises(error):
                batch_loss(params, step_config, batch)

    def test_items_are_tokenized_once(self):
        item = TrainItem("the falcon is fast", "what is fast?", ("a b", ""), (0,), None)
        assert len(item.seq_hashes) == 7
        assert [len(h) for h in item.fact_hashes] == [2, 0]
        assert item.without_qa().seq_hashes is item.seq_hashes
        assert [1 + int(h) % 31 for h in item.seq_hashes] == token_ids(
            "the falcon is fast what is fast?", 32
        )

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
    def test_warm_step_keeps_its_memory(self):
        """With the CLI's allocator settings, a warm step of the benchmark's
        shape (32 retrieval + 12 answer items) reuses freed memory instead of
        faulting it in again; without them it takes ~8,600 faults a step."""
        import resource

        _keep_freed_heap()
        config = RunConfig()
        config = replace(config, moe=replace(config.moe, vocab_size=512))
        examples = synthetic_examples(200, seed=11)
        states = stage1_states(examples, config, MockBackend())
        items = build_train_items(examples, states, config.moe)
        batch = [i.without_qa() for i in items if i.frg_targets][:32]
        batch += [i.without_frg() for i in items if i.qa_targets][:12]
        params = MoeParams.init(config.moe, config.seed)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                batch_gradients(params, config.moe, batch, pool)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                batch_gradients(params, config.moe, batch, pool)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 5 < 1000
