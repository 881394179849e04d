"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import random
import time

import numpy as np
import pytest

from entailqa.dataset import run_config_from_dict, write_json
from entailqa.facts import FactBase, add_fact
from entailqa.llm import MockBackend
from entailqa.metrics import em, retrieval_f1, word_f1
from entailqa.moe import (
    GATE_A,
    GATE_B,
    MoeConfig,
    MoeParams,
    TrainItem,
    answer_token_targets,
    batch_gradients,
    batch_loss,
    losses,
    route,
)
from entailqa.pipeline import (
    PipelineState,
    build_train_items,
    predict_pending,
    run_feedback_iteration,
    run_pipeline,
    run_stage1,
    should_stop,
    stage2_targets,
    train,
    validation_ids,
)
from entailqa.refine import refine
from entailqa.synth import (
    corrupted_tree_scripts,
    random_sentence,
    random_tree,
    synthetic_corpus,
    synthetic_examples,
)
from entailqa.tree import parse_tree, score_tree, serialize_tree


def _record(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- recorded fixture for criteria 6 and 7 (seeded baseline run) ---------------------

CORPUS_SEED = 11
SCRIPT_SEED = 23
RECORDED = {
    "train_initial": 7.648,
    "train_final": 0.356,
    "leaf_rate_before": 0.695,
    "leaf_rate_after": 1.0,
    "val_em_before": 0.78,
    "val_em_after": 0.92,
}
ANCHOR_TOL = 0.03


@pytest.fixture(scope="module")
def seeded_experiment():
    """200-example corpus, 30% corrupted initial trees, stage-2 training."""
    examples = synthetic_examples(200, seed=CORPUS_SEED)
    scripts, corrupted = corrupted_tree_scripts(
        examples, corrupt_fraction=0.3, seed=SCRIPT_SEED
    )
    backend = MockBackend(scripted_trees=scripts)
    config = run_config_from_dict(
        {
            "seed": CORPUS_SEED,
            "moe": {
                "embed_dim": 16,
                "vocab_size": 512,
                "n_frg_experts": 2,
                "n_qa_experts": 2,
                "n_shared_experts": 2,
                "max_seq_len": 512,
            },
            "training": {
                "steps": 200,
                "learning_rate": 1e-2,
                "batch_size_retrieval": 32,
                "batch_size_qa": 12,
            },
        }
    )
    states, gold = {}, {}
    for example in examples:
        base, tree = run_stage1(example, backend, top_n=config.retrieval_top_n)
        state = PipelineState(question_id=example.id, question=example.question, base=base)
        state.tree_versions.append(tree)
        state.frg_targets, state.qa_targets = stage2_targets(
            example, base, tree, config.moe.vocab_size
        )
        states[example.id] = state
        gold[example.id] = parse_tree(example.gold_tree)

    items = build_train_items(examples, states, config.moe)
    params = MoeParams.init(config.moe, config.seed)
    t0 = time.monotonic()
    curve = train(params, config, items)
    train_seconds = time.monotonic() - t0
    return {
        "examples": examples,
        "states": states,
        "gold": gold,
        "backend": backend,
        "config": config,
        "params": params,
        "curve": curve,
        "train_seconds": train_seconds,
        "corrupted": corrupted,
    }


def test_criterion_1_dsl_roundtrip():
    rng = random.Random(2024)
    t0 = time.monotonic()
    count = 1000
    for _ in range(count):
        tree = random_tree(rng, max_depth=5, max_leaves=10)
        assert parse_tree(serialize_tree(tree)).structurally_equal(tree)
    elapsed = time.monotonic() - t0
    _record(
        1,
        elapsed < 5.0,
        f"{count}/{count} random trees round-trip identically in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_refine_oracle_equivalence(mock_backend):
    def oracle(tree, base):
        def text_of(node):
            if node.kind == "leaf":
                return base.facts[node.index - 1].text
            premises = tree.step_for(node).premises
            return "; therefore ".join(text_of(p) for p in premises)

        return {s.conclusion: text_of(s.conclusion) for s in tree.steps}

    rng = random.Random(77)
    t0 = time.monotonic()
    count = 500
    for _ in range(count):
        tree = random_tree(rng, texts="none")
        base = FactBase("q")
        for k in range(len(tree.leaves)):
            base = add_fact(base, random_sentence(rng), "text", f"e{k + 1}")
        filled = refine(tree, base, mock_backend)
        expected = oracle(tree, base)
        for step in filled.steps:
            assert step.conclusion_text == expected[step.conclusion]
        for leaf in filled.leaves:
            assert filled.leaves[leaf] == base.facts[leaf.index - 1].text
    elapsed = time.monotonic() - t0
    _record(
        2,
        elapsed < 10.0,
        f"refine == recursive oracle on {count}/{count} trees in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_routing_invariants():
    config = MoeConfig(
        embed_dim=8,
        vocab_size=32,
        n_frg_experts=2,
        n_qa_experts=2,
        n_shared_experts=2,
        top_k=2,
    )
    params = MoeParams.init(config, 31)
    rng = np.random.default_rng(31)
    tokens = rng.normal(size=(10_000, config.embed_dim))
    checked = 0
    for gate, own_pool, other_ids in (
        (GATE_A, config.pool(GATE_A), set(config.qa_expert_ids)),
        (GATE_B, config.pool(GATE_B), set(config.frg_expert_ids)),
    ):
        decision = route(params, config, tokens, gate)
        assert decision.indices.shape == (10_000, 2)
        assert not set(decision.indices.ravel().tolist()) & other_ids
        assert set(decision.indices.ravel().tolist()) <= set(own_pool)
        matrix = params.gate_a if gate == GATE_A else params.gate_b
        logits = tokens @ matrix.T
        for t in range(tokens.shape[0]):
            exps = [math.exp(v - max(logits[t])) for v in logits[t]]
            total = sum(exps)
            for k in range(2):
                pos = int(decision.pool_positions[t, k])
                assert abs(decision.values[t, k] - exps[pos] / total) < 1e-12
            checked += 1
    _record(
        3,
        checked == 20_000,
        "exactly K=2 per token, pools task-exclusive, values match an "
        f"independent softmax to 1e-12 on {checked} token-gate pairs",
    )


def test_criterion_4_gradient_check():
    config = MoeConfig(
        embed_dim=8,
        vocab_size=32,
        n_frg_experts=2,
        n_qa_experts=2,
        n_shared_experts=2,
        top_k=2,
        max_seq_len=16,
    )
    params = MoeParams.init(config, 3)
    batch = [
        TrainItem(
            "the falcon is fast",
            "what is fast?",
            ("the falcon is fast.", "the harbor is deep."),
            (0, 1),
            answer_token_targets("fast", 32),
        ),
        TrainItem(
            "the harbor is deep and wide",
            "how deep is it?",
            ("the harbor is deep.", "the mill is old."),
            (0,),
            answer_token_targets("deep", 32),
        ),
    ]
    t0 = time.monotonic()
    _, grads = batch_gradients(params, config, batch)
    eps = 1e-5
    worst = 0.0
    worst_name = ""
    n_params = 0
    for name, arr in params.blocks():
        flat = arr.ravel()
        gflat = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = batch_loss(params, config, batch)
            flat[i] = orig - eps
            down = batch_loss(params, config, batch)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            denom = max(1e-6, abs(fd), abs(gflat[i]))
            err = abs(fd - gflat[i]) / denom
            if err > worst:
                worst, worst_name = err, name
            n_params += 1
    elapsed = time.monotonic() - t0
    _record(
        4,
        worst < 1e-4 and elapsed < 60.0,
        f"max relative error {worst:.2e} (worst block {worst_name}) over "
        f"{n_params} parameters in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_loss_identities():
    vocab = 32
    uniform = np.zeros((4, vocab))
    rng = np.random.default_rng(50)
    frg = rng.normal(size=(3, 6))
    l_frg, l_qa, total = losses(frg, [0, 5, 2], uniform, [7, 1, 0, 9])
    uniform_gap = abs(l_qa - math.log(vocab))
    _record(
        5,
        uniform_gap < 1e-9 and total == l_frg + l_qa,
        f"uniform QA loss within {uniform_gap:.1e} of ln({vocab}); "
        "total equals the exact sum of both terms",
    )


def test_criterion_6_training_sanity(seeded_experiment):
    curve = seeded_experiment["curve"]
    elapsed = seeded_experiment["train_seconds"]
    ratio = curve[-1] / curve[0]
    anchors_hold = (
        abs(curve[0] - RECORDED["train_initial"]) < ANCHOR_TOL
        and abs(curve[-1] - RECORDED["train_final"]) < ANCHOR_TOL
    )
    _record(
        6,
        ratio <= 0.5 and elapsed < 300.0 and anchors_hold,
        f"200 steps on 200 examples: loss {curve[0]:.3f} -> {curve[-1]:.3f} "
        f"(ratio {ratio:.3f} <= 0.5) in {elapsed:.1f}s (< 300s)",
    )


def test_criterion_7_feedback_efficacy(seeded_experiment):
    examples = seeded_experiment["examples"]
    states = seeded_experiment["states"]
    gold = seeded_experiment["gold"]
    params = seeded_experiment["params"]
    backend = seeded_experiment["backend"]
    config = seeded_experiment["config"]

    def leaf_rate(version):
        return float(
            np.mean(
                [
                    score_tree(
                        states[ex.id].tree_versions[version], gold[ex.id]
                    ).leaves_correct
                    for ex in examples
                ]
            )
        )

    val = validation_ids(examples, config.validation_fraction)

    def val_em(version):
        return float(
            np.mean(
                [
                    em(states[ex.id].predicted_answers[version], ex.gold_answers())
                    for ex in examples
                    if ex.id in val
                ]
            )
        )

    for ex in examples:
        predict_pending(states[ex.id], params, config.decode_answer_len)
    before_leaf, before_em = leaf_rate(0), val_em(0)
    for ex in examples:
        run_feedback_iteration(states[ex.id], params, backend, config.decode_answer_len)
        predict_pending(states[ex.id], params, config.decode_answer_len)
    after_leaf, after_em = leaf_rate(1), val_em(1)

    anchors_hold = (
        abs(before_leaf - RECORDED["leaf_rate_before"]) < ANCHOR_TOL
        and abs(after_leaf - RECORDED["leaf_rate_after"]) < ANCHOR_TOL
        and abs(before_em - RECORDED["val_em_before"]) < ANCHOR_TOL
        and abs(after_em - RECORDED["val_em_after"]) < ANCHOR_TOL
    )
    _record(
        7,
        after_leaf > before_leaf and after_em >= before_em and anchors_hold,
        f"{len(seeded_experiment['corrupted'])}/200 corrupted; leaf rate "
        f"{before_leaf:.3f} -> {after_leaf:.3f} (strictly up), validation EM "
        f"{before_em:.2f} -> {after_em:.2f} (never down)",
    )


def test_criterion_8_stopping_rule(mock_backend):
    flat = should_stop([0.5, 0.5], 5)
    improving = should_stop([0.5, 0.62], 2)
    single = should_stop([0.5], 2)

    examples = synthetic_examples(4, seed=40)
    config = run_config_from_dict(
        {
            "seed": 40,
            "iteration_budget": 2,
            "moe": {
                "embed_dim": 8,
                "vocab_size": 128,
                "n_frg_experts": 2,
                "n_qa_experts": 2,
                "n_shared_experts": 2,
                "max_seq_len": 512,
            },
            "training": {"steps": 5, "learning_rate": 1e-3,
                         "batch_size_retrieval": 4, "batch_size_qa": 2},
        }
    )
    states, _ = run_pipeline(examples, config, mock_backend)
    max_iter = max(states[ex.id].iteration for ex in examples)
    reasons = {states[ex.id].stopped_reason for ex in examples}
    _record(
        8,
        flat == (True, "no_improvement")
        and improving == (True, "budget")
        and single == (False, None)
        and max_iter <= config.iteration_budget
        and len(reasons) == 1,
        f"flat scores -> no_improvement; budget stop at k=2; pipeline ran "
        f"{max_iter} <= {config.iteration_budget} iterations with one reason "
        f"({reasons.pop()})",
    )


def test_criterion_9_metric_fixtures():
    cases = [
        ("em", em("Churchill Downs", "churchill downs"), 1),
        ("em", em("The Churchill Downs.", "churchill downs"), 1),
        ("em", em("brown horse", "racing brown horse"), 0),
        ("em", em("pearl", ["onyx", "pearl"]), 1),
        ("em", em("", ""), 1),
        ("em", em("a an the", ""), 1),
        ("f1", word_f1("racing brown horse", "brown horse"), 0.8),
        ("f1", word_f1("brown horse", "brown horse"), 1.0),
        ("f1", word_f1("silver", "golden"), 0.0),
        ("f1", word_f1("x y x", "x x"), 0.8),
        ("f1", word_f1("cold deep harbor", ["deep harbor", "warm reef"]), 0.8),
        ("f1", word_f1("", "x"), 0.0),
        ("f1", word_f1("", ""), 1.0),
        ("f1", word_f1("one two three four", "three four five six"), 0.5),
        ("rf1", retrieval_f1({1, 2}, {2, 3}).f1, 0.5),
        ("rf1", retrieval_f1({1, 2}, {1, 2}).f1, 1.0),
        ("rf1", retrieval_f1(set(), {1}).f1, 0.0),
        ("rf1", retrieval_f1({1}, set()).f1, 0.0),
        ("rf1", retrieval_f1({1, 2, 3, 4}, {2, 4}).f1, 2 / 3),
        ("rf1", retrieval_f1({"e1"}, {"e1", "e2"}).f1, 2 / 3),
    ]
    assert len(cases) == 20
    failures = [
        (kind, got, want)
        for kind, got, want in cases
        if abs(got - want) > 1e-9
    ]
    _record(
        9,
        not failures,
        f"20/20 hand-computed EM/F1/retrieval fixtures match to 1e-9 "
        f"(failures: {failures})",
    )


def test_criterion_10_determinism(tmp_path):
    from entailqa.cli import cli_dispatch

    dataset = tmp_path / "ds.json"
    write_json(dataset, synthetic_corpus(6, seed=5))
    config = tmp_path / "cfg.json"
    write_json(
        config,
        {
            "seed": 5,
            "backend": "mock",
            "moe": {
                "embed_dim": 8,
                "vocab_size": 256,
                "n_frg_experts": 2,
                "n_qa_experts": 2,
                "n_shared_experts": 2,
                "max_seq_len": 512,
            },
            "training": {"steps": 15, "learning_rate": 1e-2,
                         "batch_size_retrieval": 6, "batch_size_qa": 4},
        },
    )
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = cli_dispatch(
            ["run-pipeline", str(dataset), "--config", str(config), "--out", str(out)]
        )
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    _record(
        10,
        identical,
        f"two mock runs with one seed produced byte-identical artifacts "
        f"({len(names)} files)",
    )
