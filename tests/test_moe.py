import math
import platform
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entailqa import moe as core
from entailqa.cli import _keep_freed_heap
from entailqa.dataset import RunConfig
from entailqa.errors import LengthMismatch, NonFiniteLoss, SchemaError, SequenceTooLong
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
    check_train_item,
    decode_answer,
    decode_items,
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


def _per_position(params, tree_text, question):
    """Encoder rows of every token position of the tree text then question."""
    vocab = params.config.vocab_size
    return encode(params, token_ids(tree_text, vocab) + token_ids(question, vocab))


def _bag_ids(item, vocab):
    """The bucket of each row of the item's bag, repeated by its count."""
    return np.repeat(core._bucket(item.bag_hashes, vocab), item.bag_counts).tolist()


class TestEncode:
    def test_single_token_shape(self, tiny_params):
        assert encode(tiny_params, token_ids("falcon", 32)).shape == (1, 8)

    def test_deterministic(self, tiny_params):
        a = _per_position(tiny_params, "tree text here", "and a question?")
        b = _per_position(tiny_params, "tree text here", "and a question?")
        assert np.array_equal(a, b)

    def test_concatenates_tree_then_question(self):
        item = TrainItem("one two", "three?", ())
        ids = token_ids("one two", 32) + token_ids("three?", 32)
        assert item.n_tokens == item.bag_counts.sum() == 3
        assert Counter(_bag_ids(item, 32)) == Counter(ids)

    def test_one_row_per_distinct_id(self, tiny_params, tiny_config):
        tree_text, question = "the falcon and the falcon", "the falcon?"
        item = TrainItem(tree_text, question, ())
        ids = token_ids(tree_text, 32) + token_ids(question, 32)
        bag_ids = core._bucket(item.bag_hashes, 32)
        assert len(bag_ids) == len(set(ids)) < len(ids) == item.n_tokens
        assert dict(zip(bag_ids.tolist(), item.bag_counts.tolist())) == Counter(ids)
        rows = encode(tiny_params, bag_ids)
        (falcon,) = token_ids("falcon", 32)
        row = rows[bag_ids.tolist().index(falcon)]
        assert np.allclose(row, encode(tiny_params, [falcon])[0], rtol=0, atol=1e-15)

    def test_too_long(self, tiny_config):
        with pytest.raises(SequenceTooLong):
            check_train_item(TrainItem("word " * 100, "", ()), tiny_config)

    def test_qa_decoder_weights_isolated(self, tiny_config):
        a = MoeParams.init(tiny_config, 3)
        b = MoeParams.init(tiny_config, 3)
        b.vocab_out[:] = np.random.default_rng(0).normal(size=b.vocab_out.shape)
        b.qa_q[:] = 0.0
        ea = _per_position(a, "tree", "question?")
        eb = _per_position(b, "tree", "question?")
        assert np.array_equal(ea, eb)


def _fact_features(params, texts):
    """``fact_features`` over the per-position encoder rows of each text."""
    ids = [token_ids(text, params.config.vocab_size) for text in texts]
    rows = encode(params, [t for fact_ids in ids for t in fact_ids])
    return fact_features(rows, np.array([len(fact_ids) for fact_ids in ids]))


class TestFactFeatures:
    def test_single_token_fact_equals_token_encoding(self, tiny_params):
        ff = _fact_features(tiny_params, ["falcon"])
        enc = _per_position(tiny_params, "falcon", "")
        np.testing.assert_allclose(ff[0], enc[0], rtol=0, atol=1e-12)

    def test_mean_of_two_tokens(self, tiny_params):
        ff = _fact_features(tiny_params, ["falcon harbor"])
        enc = _per_position(tiny_params, "falcon harbor", "")
        np.testing.assert_allclose(ff[0], enc.mean(axis=0), rtol=0, atol=1e-12)

    def test_repeated_token_weighs_once_per_position(self, tiny_params):
        ff = _fact_features(tiny_params, ["falcon falcon harbor"])
        enc = _per_position(tiny_params, "falcon falcon harbor", "")
        np.testing.assert_allclose(ff[0], enc.mean(axis=0), rtol=0, atol=1e-15)

    def test_row_per_fact(self, tiny_params, small_base):
        assert _fact_features(tiny_params, small_base.texts()).shape == (3, 8)

    def test_fact_without_tokens_gives_zeros(self):
        rows = np.random.default_rng(3).normal(size=(3, 8))
        ff = fact_features(rows, np.array([2, 0, 1]))
        np.testing.assert_allclose(ff[0], rows[:2].mean(axis=0), rtol=0, atol=1e-12)
        assert not ff[1].any()
        np.testing.assert_allclose(ff[2], rows[2], rtol=0, atol=1e-12)


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
        out, _ = moe_forward(params, config, x, GATE_A)
        assert np.allclose(out, 1.9 * x, atol=1e-6)
        mix_only = out - x
        assert np.allclose(mix_only, 0.9 * x, atol=1e-6)

    def test_residual_identity(self, tiny_params, tiny_config):
        x = np.random.default_rng(4).normal(size=(6, 8))
        out, _ = moe_forward(tiny_params, tiny_config, x, GATE_A)
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
        out_a, _ = moe_forward(params, config, x, GATE_A)
        out_b, _ = moe_forward(params, config, x, GATE_B)
        assert not np.allclose(out_a, out_b)
        # shared experts dominate: identical selections and values
        params.gate_a[:, 0] = [0.0, 0.0, 9.0, 8.0]
        params.gate_b[:, 0] = [0.0, 0.0, 9.0, 8.0]
        out_a, _ = moe_forward(params, config, x, GATE_A)
        out_b, _ = moe_forward(params, config, x, GATE_B)
        assert np.allclose(out_a, out_b)

    def test_zero_row_passes_bias_path(self, tiny_params, tiny_config):
        tiny_params.expert_b1[:] = 0.3
        tiny_params.expert_b2[:] = 0.1
        x = np.zeros((1, 8))
        out, _ = moe_forward(tiny_params, tiny_config, x, GATE_A)
        decision = route(tiny_params, tiny_config, x, GATE_A)
        expected = np.zeros(8)
        for k in range(tiny_config.top_k):
            e = int(decision.indices[0, k])
            h = np.tanh(tiny_params.expert_b1[e])
            expected += decision.values[0, k] * (
                tiny_params.expert_w2[e] @ h + tiny_params.expert_b2[e]
            )
        assert np.allclose(out[0], expected, atol=1e-12)


def _frg_one(params, seq, facts, steps):
    """``frg_forward`` on one item whose rows are ``seq``."""
    layout, fact_layout = core._Ragged([len(seq)]), core._Ragged([len(facts)])
    return frg_forward(params, seq, layout, facts, fact_layout, steps)[0][0]


def _qa_one(params, seq, answer_len):
    """``qa_forward`` on one item whose rows are ``seq``."""
    return qa_forward(params, seq, core._Ragged([len(seq)]), answer_len)[0][0]


class TestHeads:
    def test_frg_shapes(self, tiny_params, tiny_config):
        seq = np.random.default_rng(7).normal(size=(4, 8))
        facts = np.random.default_rng(8).normal(size=(1, 8))
        scores = _frg_one(tiny_params, seq, facts, 1)
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
        probe = _frg_one(tiny_params, seq, np.zeros((1, 8)), 1)
        # reconstruct ctx direction: score with identity projections is ctx @ ff.T
        rng = np.random.default_rng(10)
        ctx_dir = np.zeros(8)
        ctx_dir[:] = 0.0
        # recover ctx by probing with basis fact vectors
        basis = np.eye(8)
        scores = _frg_one(tiny_params, seq, basis, 1) * math.sqrt(8)
        ctx_dir = scores[0]
        facts = np.vstack([rng.normal(size=8) * 0.05, ctx_dir / np.linalg.norm(ctx_dir)])
        out = _frg_one(tiny_params, seq, facts, 1)
        assert int(np.argmax(out[0])) == 1

    def test_qa_shapes(self, tiny_params, tiny_config):
        seq = np.random.default_rng(11).normal(size=(4, 8))
        logits = _qa_one(tiny_params, seq, 1)
        assert logits.shape == (1, 32)

    def test_qa_ignores_fact_features(self, tiny_params):
        seq = np.random.default_rng(12).normal(size=(4, 8))
        before = _qa_one(tiny_params, seq, 2)
        tiny_params.frg_k2[:] = 123.0  # fact-side projection, QA must not care
        after = _qa_one(tiny_params, seq, 2)
        assert np.array_equal(before, after)

    def test_qa_sensitive_to_sequence(self, tiny_params):
        rng = np.random.default_rng(13)
        seq = rng.normal(size=(4, 8))
        before = _qa_one(tiny_params, seq, 2)
        after = _qa_one(tiny_params, seq + 0.1, 2)
        assert not np.allclose(before, after)

    def test_step_count_bounds(self, tiny_params):
        seq = np.zeros((2, 8))
        with pytest.raises(ValueError):
            _frg_one(tiny_params, seq, np.zeros((1, 8)), 0)
        with pytest.raises(SequenceTooLong):
            _qa_one(tiny_params, seq, 1000)

    @pytest.mark.parametrize("head", ["frg", "qa"])
    def test_bag_attention_matches_positions(self, tiny_params, head):
        """Attention over an item's distinct ids, each score raised by the log
        of the id's count, gives the outputs and gradients of attention over
        its positions: on ragged lengths, an item of one repeated id and an
        item whose ids are all distinct."""
        rng = np.random.default_rng(21)
        table = rng.normal(size=(40, 8))  # one kv row per id
        items = [rng.integers(0, 6, size=30), np.full(12, 7), rng.permutation(40)[:9]]
        bags = [np.unique(ids, return_counts=True) for ids in items]
        positions = core._Ragged([len(ids) for ids in items])
        bag = core._Ragged([len(b) for b, _ in bags], np.concatenate([c for _, c in bags]))
        bag_ids = np.concatenate([b for b, _ in bags])
        pos_ids = np.concatenate(items)

        d_out = rng.normal(size=(3, 5, 8))
        results = []
        for layout, ids in ((positions, pos_ids), (bag, bag_ids)):
            out, cache = core._attention_fwd(tiny_params, head, 5, table[ids], layout)
            grads = tiny_params.zero_grads()
            d_kv = core._attention_bwd(tiny_params, head, d_out, cache, table[ids], layout, grads)
            d_table = np.zeros_like(table)
            np.add.at(d_table, ids, d_kv)
            results.append((out, grads, d_table))
        (out_p, grads_p, d_p), (out_b, grads_b, d_b) = results
        assert [len(b) for b, _ in bags][1:] == [1, 9]
        np.testing.assert_allclose(out_b, out_p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_b, d_p, rtol=0, atol=1e-12)
        for name in core._ATTENTION[head]:
            assert np.any(grads_p[name]), name
            np.testing.assert_allclose(grads_b[name], grads_p[name], rtol=0, atol=1e-12, err_msg=name)


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


_SWEEP_WORDS = ("the", "falcon", "harbor", "is", "deep", "red", "mill", "old", "reef", "far")


def _words(lo, hi):
    return st.lists(st.sampled_from(_SWEEP_WORDS), min_size=lo, max_size=hi).map(" ".join)


@st.composite
def _sweep_shapes(draw):
    """A config over every routing shape, a parameter seed and 1-5 items, each
    with both targets or one, over facts of 0-4 words."""
    n_frg, n_qa, n_shared = (draw(st.integers(1, 3)) for _ in range(3))
    config = MoeConfig(
        embed_dim=draw(st.integers(2, 6)),
        vocab_size=draw(st.integers(4, 40)),
        n_frg_experts=n_frg,
        n_qa_experts=n_qa,
        n_shared_experts=n_shared,
        top_k=draw(st.integers(1, min(n_frg, n_qa) + n_shared)),
        max_seq_len=12,
    )
    items = []
    for _ in range(draw(st.integers(1, 5))):
        facts = tuple(draw(st.lists(_words(0, 4), min_size=1, max_size=3)))
        targets = draw(st.sampled_from(["both", "frg", "qa"]))
        frg = draw(st.lists(st.integers(0, len(facts) - 1), min_size=1, max_size=3))
        qa = answer_token_targets(draw(_words(1, 2)), config.vocab_size)
        items.append(
            TrainItem(
                draw(_words(1, 6)),
                draw(_words(0, 4)),
                facts,
                tuple(frg) if targets != "qa" else None,
                qa if targets != "frg" else None,
            )
        )
    return config, draw(st.integers(0, 2**32 - 1)), items


class TestGradientSweep:
    @given(_sweep_shapes())
    @settings(max_examples=50, deadline=None)
    def test_directional_derivative_of_every_block(self, shape):
        """Each block's gradient along a random direction v matches
        (L(θ+εv) − L(θ−εv)) / 2ε, for draws whose routing is the same at
        θ−εv, θ and θ+εv (a top-K switch is a kink of the loss, not a bug)."""
        config, seed, batch = shape
        for item in batch:
            check_train_item(item, config)
        params = MoeParams.init(config, seed % 1000)
        rng = np.random.default_rng(seed)
        routed = []
        route_rows = core.route

        def recording(params, config, feats, gate):
            decision = route_rows(params, config, feats, gate)
            routed.append(decision.indices.copy())
            return decision

        eps = 1e-6
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "route", recording)
            _, grads = batch_gradients(params, config, batch)
            at_theta = routed.copy()
            routed.clear()
            checks = []
            for name, arr in params.blocks():
                v = rng.standard_normal(arr.shape)
                orig = arr.copy()
                arr += eps * v
                up = batch_loss(params, config, batch)
                arr[...] = orig - eps * v
                down = batch_loss(params, config, batch)
                arr[...] = orig
                checks.append((name, (up - down) / (2 * eps), float(np.vdot(grads[name], v))))
        calls = len(at_theta)  # each loss routes as the gradient pass did
        assume(all(np.array_equal(a, at_theta[i % calls]) for i, a in enumerate(routed)))
        for name, fd, analytic in checks:
            assert abs(fd - analytic) / max(1.0, abs(fd), abs(analytic)) < 1e-7, name


class TestOptimizerAndState:
    def test_checkpoint_roundtrip(self, tiny_params):
        state = tiny_params.to_state_dict()
        again = MoeParams.from_state_dict(state)
        for name, arr in tiny_params.blocks():
            assert np.array_equal(arr, getattr(again, name)), name
        assert again.config == tiny_params.config

    @pytest.mark.parametrize(
        "edit",
        [
            lambda state: state["config"].update(renormalize_topk=True),
            lambda state: state["config"].pop("top_k"),
            lambda state: state["config"].update(vocab_size=4096),
            lambda state: state["arrays"].pop("vocab_out"),
        ],
        ids=["extra_key", "missing_key", "wrong_shape", "missing_array"],
    )
    def test_checkpoint_that_does_not_fit_is_schema_error(self, tiny_params, edit):
        state = tiny_params.to_state_dict()
        edit(state)
        with pytest.raises(SchemaError):
            MoeParams.from_state_dict(state)

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
    return [replace(i, qa_targets=None) for i in items[:n_frg]] + [
        replace(i, frg_targets=None) for i in items[n_frg:]
    ]


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
        """Padding, masking, bags and grouped dispatch over 88 items (the
        benchmark's 32:12 split of a step, or retrieval items only, doubled)
        give the weighted sum of the items' own gradients."""
        params = MoeParams.init(step_config, 4)
        n_frg *= 2
        batch = split_batch(seeded_items(88, 64, seed=n_frg), n_frg)
        assert len(batch) > MICRO_BATCH
        loss, grads = batch_gradients(params, step_config, batch)
        weight = {"frg": 1.0 / n_frg, "qa": 1.0 / (88 - n_frg) if n_frg < 88 else 0.0}
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

    def test_gradcheck_across_micro_batches(self):
        config = MoeConfig(
            embed_dim=8,
            vocab_size=64,
            n_frg_experts=2,
            n_qa_experts=2,
            n_shared_experts=2,
            max_seq_len=64,
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
            with pytest.raises(error):
                batch_loss(params, step_config, batch)

    def test_items_are_tokenized_once(self):
        item = TrainItem("the falcon is fast", "what is fast?", ("a b", ""), (0,), None)
        assert item.n_tokens == 7
        assert [len(h) for h in item.fact_hashes] == [2, 0]
        assert replace(item, qa_targets=None).bag_hashes is item.bag_hashes
        seq = core._token_hashes("the falcon is fast what is fast?")
        assert [1 + int(h) % 31 for h in seq] == token_ids("the falcon is fast what is fast?", 32)
        bag, counts = np.unique(seq, return_counts=True)
        assert np.array_equal(item.bag_hashes, bag)
        assert np.array_equal(item.bag_counts, counts)

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
        batch = [replace(i, qa_targets=None) for i in items if i.frg_targets][:32]
        batch += [replace(i, frg_targets=None) for i in items if i.qa_targets][:12]
        params = MoeParams.init(config.moe, config.seed)
        for _ in range(3):
            batch_gradients(params, config.moe, batch)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            batch_gradients(params, config.moe, batch)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 5 < 1000


# --- the per-position step, kept as the reference of the distinct-id step ----------


def _seq_hashes(item):
    """The crc32 of every token position of the item's tree text then question."""
    return np.concatenate([core._token_hashes(item.tree_text), core._token_hashes(item.question)])


def _per_position_micro(params, config, items, frg_weight, qa_weight):
    """Loss and gradients of one micro-batch with the encoder and each gate's
    MoE layer run once per token position."""
    frg = [item for item in items if item.frg_targets is not None]
    qa = [item for item in items if item.qa_targets is not None]
    fact_hashes = [h for item in frg for h in item.fact_hashes]
    seq_hashes = [_seq_hashes(item) for item in frg + qa]
    ids = core._bucket(np.concatenate(seq_hashes + fact_hashes), config.vocab_size)
    enc = encode(params, ids)
    n_frg = sum(len(h) for h in seq_hashes[: len(frg)])
    n_seq = sum(len(h) for h in seq_hashes)
    d = config.embed_dim
    loss, grads, d_enc = 0.0, params.zero_grads(), np.zeros_like(enc)
    if frg:
        rows = slice(0, n_frg)
        layout = core._Ragged([len(h) for h in seq_hashes[: len(frg)]])
        seq_moe, cache = moe_forward(params, config, enc[rows], GATE_A)
        targets, weights = core._pad_targets([item.frg_targets for item in frg], frg_weight)
        fact_layout = core._Ragged([len(item.fact_hashes) for item in frg])
        lengths = np.array([len(h) for h in fact_hashes], dtype=np.intp)
        fact_feats = fact_features(enc[n_seq:], lengths)
        scores, head = frg_forward(
            params, seq_moe, layout, fact_feats, fact_layout, targets.shape[1]
        )
        part, d_scores = core._weighted_cross_entropy(scores, targets, weights)
        loss += part
        d_q2 = d_scores @ head["k2"] * head["scale"]
        d_k2 = fact_layout.unpad(d_scores.transpose(0, 2, 1) @ head["q2"] * head["scale"])
        grads["frg_q2"] += head["ctx"].reshape(-1, d).T @ d_q2.reshape(-1, d)
        grads["frg_k2"] += fact_feats.T @ d_k2
        d_seq = core._attention_bwd(
            params, "frg", d_q2 @ params.frg_q2.T, head["attn"], seq_moe, layout, grads
        )
        d_enc[rows] = core._moe_bwd(params, config, enc[rows], cache, d_seq, grads)
        d_enc[n_seq:] = core._fact_features_bwd(d_k2 @ params.frg_k2.T, lengths)
    if qa:
        rows = slice(n_frg, n_seq)
        layout = core._Ragged([len(h) for h in seq_hashes[len(frg) :]])
        seq_moe, cache = moe_forward(params, config, enc[rows], GATE_B)
        targets, weights = core._pad_targets([item.qa_targets for item in qa], qa_weight)
        logits, head = qa_forward(params, seq_moe, layout, targets.shape[1])
        part, d_logits = core._weighted_cross_entropy(logits, targets, weights)
        loss += part
        grads["vocab_out"] += d_logits.reshape(-1, config.vocab_size).T @ head["ctx"].reshape(-1, d)
        d_seq = core._attention_bwd(
            params, "qa", d_logits @ params.vocab_out, head["attn"], seq_moe, layout, grads
        )
        d_enc[rows] = core._moe_bwd(params, config, enc[rows], cache, d_seq, grads)
    d_z = d_enc * (1.0 - enc * enc)
    grads["enc_w"] += d_z.T @ params.embedding[ids]
    grads["enc_b"] += d_z.sum(axis=0)
    np.add.at(grads["embedding"], ids, d_z @ params.enc_w)
    return loss, grads


def per_position_gradients(params, config, batch):
    chunks, frg_weight, qa_weight = core._micro_batches(batch)
    total, grads = 0.0, params.zero_grads()
    for chunk in chunks:
        loss, chunk_grads = _per_position_micro(params, config, chunk, frg_weight, qa_weight)
        total += loss
        for name, g in chunk_grads.items():
            grads[name] += g
    return total, grads


class TestDistinctIdStep:
    def test_matches_per_position_step(self):
        config = MoeConfig(
            embed_dim=8,
            vocab_size=64,
            n_frg_experts=2,
            n_qa_experts=2,
            n_shared_experts=2,
            max_seq_len=64,
        )
        params = MoeParams.init(config, 6)
        items = seeded_items(2 * MICRO_BATCH + 6, 64, seed=9)
        # retrieval-only, answer-only and two-target items; one micro-batch mixes them
        batch = split_batch(items[: 2 * MICRO_BATCH], MICRO_BATCH + 3) + items[2 * MICRO_BATCH :]
        ids = core._bucket(np.concatenate([_seq_hashes(item) for item in batch]), 64)
        assert len(np.unique(ids)) < len(ids) / 4  # words repeat
        loss, grads = batch_gradients(params, config, batch)
        expected_loss, expected = per_position_gradients(params, config, batch)
        assert loss == pytest.approx(expected_loss, rel=0, abs=1e-12)
        for name, g in grads.items():
            assert np.any(g), name
            np.testing.assert_allclose(g, expected[name], rtol=0, atol=1e-12, err_msg=name)

    def test_route_sees_each_distinct_id_once_per_gate(self, step_config, monkeypatch):
        """Each gate routes the distinct ids of its own head's sequences once:
        not those of the other head, nor the facts' (which skip the MoE layer)."""
        config = replace(step_config, vocab_size=4096)
        params = MoeParams.init(config, 4)
        chunk = split_batch(seeded_items(4, 4096, seed=8), 2)  # one micro-batch
        seen = []
        route_rows = core.route

        def counting(params, config, feats, gate):
            seen.append((gate, len(feats)))
            return route_rows(params, config, feats, gate)

        monkeypatch.setattr(core, "route", counting)
        batch_gradients(params, config, chunk)

        def distinct(hashes):
            return len(np.unique(core._bucket(np.concatenate(hashes), 4096)))

        frg_ids = distinct([item.bag_hashes for item in chunk[:2]])
        qa_ids = distinct([item.bag_hashes for item in chunk[2:]])
        every = distinct(
            [item.bag_hashes for item in chunk] + [h for item in chunk[:2] for h in item.fact_hashes]
        )
        assert frg_ids < sum(item.n_tokens for item in chunk[:2])  # words repeat
        assert max(frg_ids, qa_ids) < every
        assert seen == [(GATE_A, frg_ids), (GATE_B, qa_ids)]


class TestDecodeItems:
    def _versions(self, n, seed):
        """(item, steps, answer_len) of ``n`` seeded tree versions."""
        rng = random.Random(seed)
        versions = []
        for _ in range(n):
            tree = " ".join(random_sentence(rng) for _ in range(rng.randint(1, 3)))
            facts = tuple(random_sentence(rng) for _ in range(rng.randint(1, 4)))
            item = TrainItem(tree, random_sentence(rng), facts)
            versions.append((item, rng.randint(1, 3), rng.randint(1, 9)))
        return versions

    def test_routes_each_micro_batch_distinct_ids_once_per_gate(self, monkeypatch):
        config = MoeConfig(embed_dim=8, vocab_size=4096, n_frg_experts=2,
                           n_qa_experts=2, n_shared_experts=2, max_seq_len=64)
        params = MoeParams.init(config, 4)
        versions = self._versions(11, seed=3)
        size = core.DECODE_LOGITS // (max(n for _, _, n in versions) * 4096)
        assert 1 < size < len(versions)
        seen, encoded = [], []
        route_rows, encode_rows = core.route, core.encode

        def counting_route(params, config, feats, gate):
            seen.append((gate, len(feats)))
            return route_rows(params, config, feats, gate)

        def counting_encode(params, ids):
            encoded.append(list(ids))
            return encode_rows(params, ids)

        monkeypatch.setattr(core, "route", counting_route)
        monkeypatch.setattr(core, "encode", counting_encode)
        read = [i for i, _ in enumerate(decode_items(params, versions))]

        def distinct(hashes):
            return np.unique(core._bucket(np.concatenate(hashes), 4096))

        assert read == list(range(len(versions)))
        every = distinct([item.bag_hashes for item, _, _ in versions])
        expected_seen, expected_encoded = [], []
        for start in range(0, len(versions), size):
            items = [item for item, _, _ in versions[start : start + size]]
            bags = distinct([item.bag_hashes for item in items])
            assert len(bags) < len(every)
            expected_seen += [(GATE_A, len(bags)), (GATE_B, len(bags))]
            facts = [h for item in items for h in item.fact_hashes]
            expected_encoded.append(distinct([item.bag_hashes for item in items] + facts).tolist())
        first = [item for item, _, _ in versions[:size]]
        assert len(distinct([i.bag_hashes for i in first])) < sum(len(i.bag_hashes) for i in first)
        assert seen == expected_seen
        assert encoded == expected_encoded

    def test_slices_are_cut_to_each_item(self):
        config = MoeConfig(embed_dim=8, vocab_size=64, n_frg_experts=2,
                           n_qa_experts=2, n_shared_experts=2, max_seq_len=64)
        params = MoeParams.init(config, 5)
        versions = self._versions(9, seed=4)
        shapes = [(s.shape, q.shape) for s, q in decode_items(params, versions)]
        assert shapes == [
            ((steps, len(item.fact_texts)), (answer_len, 64))
            for item, steps, answer_len in versions
        ]
        assert list(decode_items(params, [])) == []

    def test_checks_each_item(self, tiny_config):
        facts = ("a fact.",)
        with pytest.raises(LengthMismatch):
            check_train_item(TrainItem("", "?", facts), tiny_config, 1, 1)
        item = TrainItem("tree", "q?", facts)
        check_train_item(item, tiny_config, 64, 64)
        with pytest.raises(SequenceTooLong, match="65 steps exceed the 64 learned queries"):
            check_train_item(item, tiny_config, 65, 1)
        with pytest.raises(SequenceTooLong, match="65 positions exceed the 64 learned queries"):
            check_train_item(item, tiny_config, 1, 65)
