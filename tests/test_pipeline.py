import sys

import pytest

from entailqa import pipeline
from entailqa.dataset import QAExample, RunConfig, dataset_from_dict, run_config_from_dict
from entailqa.errors import EmptyEvidence, NonFiniteLoss
from entailqa.facts import Evidence, Table
from entailqa.llm import MockBackend
from entailqa.moe import MoeParams
from entailqa.pipeline import (
    PipelineState,
    STOP_BUDGET,
    STOP_NO_IMPROVEMENT,
    build_train_items,
    evaluate_predictions,
    predict_pending,
    run_feedback_iteration,
    run_pipeline,
    run_stage1,
    should_stop,
    stage1_states,
    stage2_targets,
    train,
    validation_ids,
)
from entailqa.synth import synthetic_corpus, synthetic_examples
from entailqa.tree import leaf_id, parse_tree, serialize_tree


def _text_example(example_id="ex1"):
    return QAExample(
        id=example_id,
        question="what is the color of the falcon?",
        evidence=(
            Evidence(id="e1", modality="text", content="the color of the falcon is crimson."),
        ),
        gold_answer="crimson",
    )


def _mixed_example():
    return QAExample(
        id="mix1",
        question="what color is the horse and who was the Winner of the 2010 Season?",
        evidence=(
            Evidence(id="img1", modality="image", content="", caption="a racing brown horse"),
            Evidence(
                id="tab1",
                modality="table",
                content=Table(
                    header=("Season", "Winner"), rows=(("2010", "Super Saver"),)
                ),
            ),
            Evidence(id="txt1", modality="text", content="the race was at churchill downs."),
        ),
        gold_answer="brown",
    )


class TestStage1:
    def test_single_text_evidence_degenerate_chain(self, mock_backend):
        base, tree = run_stage1(_text_example(), mock_backend)
        assert len(base) == 1
        assert serialize_tree(tree, include_texts=False) == "fact1 -> answer"
        assert tree.hypothesis == "what is the color of the falcon?"

    def test_empty_evidence_precondition(self, mock_backend):
        example = QAExample(id="x", question="q?", evidence=(), gold_answer="a")
        with pytest.raises(EmptyEvidence):
            run_stage1(example, mock_backend)

    def test_mixed_modalities_build_facts(self, mock_backend):
        base, tree = run_stage1(_mixed_example(), mock_backend)
        modalities = {f.modality for f in base.facts}
        assert modalities == {"image", "table", "text"}
        assert set(tree.leaves) == {leaf_id(k) for k in range(1, len(base) + 1)}

    def test_golden_fixture_from_seeded_run(self, mock_backend):
        """Frozen from a seeded mock run; guards against silent drift."""
        examples = synthetic_examples(3, seed=42)
        base, tree = run_stage1(examples[0], mock_backend, top_n=4)
        assert examples[0].question == "what is the shape of the falcon?"
        assert base.texts() == [
            'the answer to "what does e3 say about shape falcon" is smooth.',
            'the answer to "what does e1 say about shape falcon" is size meadow steep.',
            'the answer to "what does e2 say about shape falcon" is color lighthouse steep.',
            'the answer to "what does e4 say about shape falcon" is age lantern warm.',
        ]
        assert serialize_tree(tree, include_texts=False) == (
            "fact1 & fact2 -> int1; fact3 & int1 -> int2; fact4 & int2 -> answer"
        )

    def test_parse_failure_after_reprompt_aborts(self, small_base):
        backend = MockBackend(scripted_trees={"ex1": "this is not a tree"})
        with pytest.raises(Exception) as excinfo:
            run_stage1(_text_example(), backend)
        assert "tree" in str(excinfo.value).lower() or excinfo.type is not None

    def test_scripted_three_fact_example(self):
        examples = synthetic_examples(12, seed=31)
        example = next(
            ex for ex in examples if len(ex.evidence) >= 3 and "&" in ex.gold_tree
        )
        script = "fact1 & fact3 -> int1; int1 & fact2 -> answer"
        backend = MockBackend(scripted_trees={example.id: script})
        base, tree = run_stage1(example, backend, top_n=3)
        assert len(base) == 3
        assert serialize_tree(tree, include_texts=False) == (
            "fact1 & fact3 -> int1; fact2 & int1 -> answer"
        )

    def test_image_calls_interleave_per_atomic_question(self):
        class TwoAtomicBackend(MockBackend):
            def __init__(self):
                super().__init__()
                self.tags = []

            def complete(self, request):
                self.tags.append(request.tag)
                return super().complete(request)

            def _do_decompose_atomic(self, prompt):
                return "1. what color is the horse?\n2. what is the horse doing?"

        example = QAExample(
            id="img2",
            question="what color is the horse?",
            evidence=(
                Evidence(id="img1", modality="image", content="", caption="a racing brown horse"),
            ),
            gold_answer="brown",
        )
        backend = TwoAtomicBackend()
        base, _ = run_stage1(example, backend)
        assert backend.tags[:7] == [
            "decompose_question",
            "decompose_atomic",
            "vqa",
            "refine_fact",
            "vqa",
            "refine_fact",
            "tree_structure",
        ]
        assert [f.origin for f in base.facts] == [
            ("what color is the horse?", "brown"),
            ("what is the horse doing?", "racing"),
        ]

    def test_unknown_answer_still_stored_as_fact(self, mock_backend):
        example = QAExample(
            id="unk1",
            question="what is the flavor of the comet?",
            evidence=(
                Evidence(id="e1", modality="image", content="", caption="a glowing rock"),
            ),
            gold_answer="unknown",
        )
        base, _ = run_stage1(example, mock_backend)
        assert len(base) == 1
        assert base.facts[0].origin[1] == "unknown"


class TestTargets:
    def test_gold_tree_wins(self, mock_backend):
        examples = synthetic_examples(4, seed=9)
        example = next(ex for ex in examples if "&" in ex.gold_tree)
        base, tree = run_stage1(example, mock_backend)
        frg, qa = stage2_targets(example, base, tree, 256)
        gold_leaves = [
            leaf.index - 1 for leaf in
            parse_tree(example.gold_tree).leaves
        ]
        assert sorted(frg) == sorted(gold_leaves)
        assert qa[-1] == 0  # eos terminated

    def test_support_ids_fallback(self, mock_backend):
        example = _text_example()
        example = QAExample(
            id=example.id,
            question=example.question,
            evidence=example.evidence,
            gold_answer=example.gold_answer,
            gold_support_ids=("e1",),
        )
        base, tree = run_stage1(example, mock_backend)
        frg, _ = stage2_targets(example, base, tree, 256)
        assert frg == (0,)

    def test_initial_tree_fallback(self, mock_backend):
        base, tree = run_stage1(_text_example(), mock_backend)
        frg, _ = stage2_targets(_text_example(), base, tree, 256)
        assert frg == (0,)


class TestFeedbackIteration:
    def _ready_state(self, mock_backend, trained=False):
        example = _text_example()
        base, tree = run_stage1(example, mock_backend)
        state = PipelineState(question_id=example.id, question=example.question, base=base)
        state.tree_versions.append(tree)
        state.frg_targets, state.qa_targets = stage2_targets(example, base, tree, 256)
        config = run_config_from_dict(
            {
                "seed": 1,
                "moe": {
                    "embed_dim": 8,
                    "vocab_size": 256,
                    "n_frg_experts": 2,
                    "n_qa_experts": 2,
                    "n_shared_experts": 2,
                    "max_seq_len": 512,
                },
                "training": {"steps": 30, "learning_rate": 1e-2,
                             "batch_size_retrieval": 2, "batch_size_qa": 2},
            }
        )
        params = MoeParams.init(config.moe, config.seed)
        if trained:
            items = build_train_items([example], {example.id: state}, config.moe)
            train(params, config, items)
        return example, state, params

    def test_appends_a_version_and_counts(self, mock_backend):
        _, state, params = self._ready_state(mock_backend)
        run_feedback_iteration(state, params, mock_backend)
        assert state.iteration == 1
        assert len(state.tree_versions) == 2
        assert len(state.retrieved_fact_ids) == 1
        assert all(fid.startswith("fact") for fid in state.retrieved_fact_ids[0])

    def test_fixed_point_when_feedback_matches(self, mock_backend):
        _, state, params = self._ready_state(mock_backend, trained=True)
        run_feedback_iteration(state, params, mock_backend)
        first = state.tree_versions[1]
        run_feedback_iteration(state, params, mock_backend)
        second = state.tree_versions[2]
        assert first.structurally_equal(second)

    def test_losses_recorded_with_targets(self, mock_backend):
        _, state, params = self._ready_state(mock_backend)
        run_feedback_iteration(state, params, mock_backend)
        assert state.losses[0] is not None and state.losses[0] > 0

    def test_requires_a_tree(self, mock_backend, small_base, tiny_params):
        state = PipelineState(question_id="q", question="q?", base=small_base)
        with pytest.raises(ValueError):
            run_feedback_iteration(state, tiny_params, mock_backend)


class TestShouldStop:
    def test_flat_scores_stop(self):
        assert should_stop([0.50, 0.50], 2) == (
            True,
            STOP_NO_IMPROVEMENT,
        )

    def test_budget_stop_on_improvement(self):
        assert should_stop([0.50, 0.62], 2) == (
            True,
            STOP_BUDGET,
        )

    def test_single_score_continues(self):
        assert should_stop([0.50], 2) == (False, None)

    def test_min_delta(self):
        assert should_stop([0.50, 0.54], 5, 0.05) == (True, STOP_NO_IMPROVEMENT)
        assert should_stop([0.50, 0.60], 5, 0.05) == (False, None)

    def test_needs_scores(self):
        with pytest.raises(ValueError):
            should_stop([], 2)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            RunConfig(iteration_budget=0)


class _GarbledFeedback(MockBackend):
    """Answers every feedback prompt for one question id with a non-tree."""

    def __init__(self, question_id, **kwargs):
        super().__init__(**kwargs)
        self.marker = f"question id: {question_id}\n"

    def _do_feedback(self, prompt):
        if self.marker in prompt:
            return "not a tree at all"
        return super()._do_feedback(prompt)


class TestRunPipeline:
    def _config(self, steps=25):
        return run_config_from_dict(
            {
                "seed": 7,
                "iteration_budget": 2,
                "moe": {
                    "embed_dim": 8,
                    "vocab_size": 256,
                    "n_frg_experts": 2,
                    "n_qa_experts": 2,
                    "n_shared_experts": 2,
                    "max_seq_len": 512,
                },
                "training": {
                    "steps": steps,
                    "learning_rate": 1e-2,
                    "batch_size_retrieval": 8,
                    "batch_size_qa": 4,
                },
            }
        )

    def test_end_to_end_states_are_consistent(self, mock_backend):
        examples = synthetic_examples(6, seed=3)
        states, summary = run_pipeline(examples, self._config(), mock_backend)
        assert summary["examples"] == 6
        assert summary["failed"] == []
        for example in examples:
            state = states[example.id]
            assert state.iteration <= 2
            assert len(state.tree_versions) == state.iteration + 1
            assert state.stopped_reason in (STOP_BUDGET, STOP_NO_IMPROVEMENT)
            assert len(state.predicted_answers) == len(state.tree_versions)
            base = state.base
            for per_version in state.retrieved_fact_ids:
                for fid in per_version:
                    assert 1 <= int(fid[4:]) <= len(base)

    def test_single_stopped_reason_recorded(self, mock_backend):
        examples = synthetic_examples(4, seed=5)
        states, _ = run_pipeline(examples, self._config(), mock_backend)
        reasons = {states[ex.id].stopped_reason for ex in examples}
        assert len(reasons) == 1

    def test_failure_is_per_example(self):
        examples = synthetic_examples(3, seed=6)
        bad = examples[1]
        backend = MockBackend(scripted_trees={bad.id: "not a tree at all"})
        states, summary = run_pipeline(examples, self._config(steps=5), backend)
        assert summary["failed"] == [bad.id]
        assert states[bad.id].failed
        others = [ex.id for ex in examples if ex.id != bad.id]
        assert all(not states[i].failed for i in others)

    def test_passes_skip_failed_states(self):
        examples = synthetic_examples(3, seed=4)
        states = {
            ex.id: PipelineState(question_id=ex.id, question=ex.question) for ex in examples
        }
        states[examples[1].id].error = "TreeSyntaxError: an earlier pass"
        seen = []
        pipeline._map_examples(2, lambda ex, state: seen.append(ex.id), examples, states)
        assert sorted(seen) == [examples[0].id, examples[2].id]
        assert states[examples[1].id].error == "TreeSyntaxError: an earlier pass"

    def test_stage1_stores_each_fact_base(self):
        examples = synthetic_examples(4, seed=6)
        bad = examples[1]
        backend = MockBackend(scripted_trees={bad.id: "not a tree at all"})
        states = stage1_states(examples, self._config(), backend)
        assert states[bad.id].failed
        assert states[bad.id].base is None
        for example in examples:
            if example is not bad:
                assert states[example.id].base == run_stage1(example, backend)[0]

    def test_worker_pool_matches_sequential(self):
        examples = synthetic_examples(6, seed=8)
        stage1_bad, feedback_bad = examples[1], examples[3]
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: more interleavings
        try:
            for workers in (1, 2, 4):
                config = run_config_from_dict(
                    {**self._config(steps=5).to_json_dict(), "workers": workers}
                )
                backend = _GarbledFeedback(
                    feedback_bad.id, scripted_trees={stage1_bad.id: "not a tree at all"}
                )
                states, summary = run_pipeline(examples, config, backend)
                runs.append(({i: s.to_json_dict() for i, s in states.items()}, summary))
        finally:
            sys.setswitchinterval(interval)

        states, summary = runs[0]
        assert summary["failed"] == sorted([stage1_bad.id, feedback_bad.id])
        assert summary["iterations"]
        assert states[stage1_bad.id]["error"].startswith("TreeSyntaxError:")
        failed_in_loop = states[feedback_bad.id]
        assert failed_in_loop["error"].startswith("TreeSyntaxError:")
        assert failed_in_loop["iteration"] == 0
        assert len(failed_in_loop["predicted_answers"]) == 1  # the first pass ran
        for other_states, other_summary in runs[1:]:
            assert other_summary == summary
            assert other_states == states

    def test_first_inference_fault_fails_alone(self, monkeypatch):
        examples = synthetic_examples(4, seed=5)
        bad = examples[2]
        faulted = []

        def flaky(state, *args, **kwargs):
            if state.question_id == bad.id and not faulted:
                faulted.append(state.question_id)
                raise NonFiniteLoss("non-finite loss nan")
            return predict_pending(state, *args, **kwargs)

        monkeypatch.setattr(pipeline, "predict_pending", flaky)
        states, summary = run_pipeline(examples, self._config(steps=5), MockBackend())
        assert summary["failed"] == [bad.id]
        assert states[bad.id].error == "NonFiniteLoss: non-finite loss nan"
        assert states[bad.id].predicted_answers == []
        for example in examples:
            if example is bad:
                continue
            state = states[example.id]
            assert not state.failed
            assert state.stopped_reason in (STOP_BUDGET, STOP_NO_IMPROVEMENT)
            assert len(state.predicted_answers) == len(state.tree_versions)

    def test_validation_slice(self):
        examples = synthetic_examples(8, seed=2)
        ids = validation_ids(examples, 0.25)
        assert len(ids) == 2
        assert ids == {examples[-2].id, examples[-1].id}


class TestPredictPending:
    def test_aligned_lengths(self, mock_backend):
        example = _text_example()
        base, tree = run_stage1(example, mock_backend)
        config = run_config_from_dict(
            {"moe": {"embed_dim": 8, "vocab_size": 128, "n_frg_experts": 2,
                      "n_qa_experts": 2, "n_shared_experts": 2, "max_seq_len": 512}}
        )
        params = MoeParams.init(config.moe, config.seed)
        state = PipelineState(question_id=example.id, question=example.question, base=base)
        state.tree_versions.append(tree)
        predict_pending(state, params)
        predict_pending(state, params)  # idempotent
        assert len(state.predicted_answers) == 1
        assert len(state.retrieved_fact_ids) == 1
        assert len(state.losses) == 1


class TestEvaluatePredictions:
    def test_scores_the_whole_gold_set(self):
        examples = dataset_from_dict(synthetic_corpus(4, seed=1))
        gold = examples[0]
        right = {"id": gold.id, "answer": gold.gold_answers()[0],
                 "retrieved_evidence_ids": list(gold.gold_support_ids)}
        report = evaluate_predictions(examples, [right])
        assert report["count"] == 4
        assert report["em"] == 0.25
        assert report["retrieval"]["f1"] == 0.25
