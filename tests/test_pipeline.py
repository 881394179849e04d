import re
import sys

import numpy as np
import pytest

from entailqa import moe, pipeline
from entailqa.dataset import QAExample, RunConfig, dataset_from_dict, run_config_from_dict
from entailqa.errors import EmptyEvidence, TreeSyntaxError, UnknownFactId
from entailqa.facts import Evidence, FactBase, Table, lookup_text
from entailqa.llm import MockBackend, generate_tree_structure
from entailqa.moe import (
    GATE_A,
    GATE_B,
    MoeConfig,
    MoeParams,
    frg_forward,
    moe_forward,
    qa_forward,
    token_ids,
)
from entailqa.pipeline import (
    PipelineState,
    STOP_BUDGET,
    STOP_NO_IMPROVEMENT,
    STOP_NO_VALIDATION,
    build_train_items,
    evaluate_predictions,
    predict_pending,
    predict_states,
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
from entailqa.refine import refine, tree_to_text
from entailqa.tree import ANSWER, leaf_id, leaf_preorder, parse_node_id, parse_tree, serialize_tree


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


class _CountingBackend(MockBackend):
    """The mock, recording the tag of every call."""

    def __init__(self):
        super().__init__()
        self.tags = []

    def complete(self, request):
        self.tags.append(request.tag)
        return super().complete(request)


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

    def _iterate(self, state, params, backend):
        predict_pending(state, params)
        run_feedback_iteration(state, backend)

    def test_appends_a_version_and_counts(self, mock_backend):
        _, state, params = self._ready_state(mock_backend)
        self._iterate(state, params, mock_backend)
        assert state.iteration == 1
        assert len(state.tree_versions) == 2
        assert len(state.retrieved_fact_ids) == 1
        assert all(fid.startswith("fact") for fid in state.retrieved_fact_ids[0])

    def test_fixed_point_when_feedback_matches(self, mock_backend):
        _, state, params = self._ready_state(mock_backend, trained=True)
        self._iterate(state, params, mock_backend)
        first = state.tree_versions[1]
        self._iterate(state, params, mock_backend)
        second = state.tree_versions[2]
        assert first.structurally_equal(second)

    def test_losses_recorded_with_targets(self, mock_backend):
        _, state, params = self._ready_state(mock_backend)
        self._iterate(state, params, mock_backend)
        assert state.losses[0] is not None and state.losses[0] > 0

    @staticmethod
    def _direct(state, feedback):
        """The version and call tags of asking the backend for ``feedback``
        directly."""
        backend = _CountingBackend()
        structure = generate_tree_structure(backend, state.question, state.base, feedback)
        return refine(structure, state.base, backend), backend.tags

    @staticmethod
    def _feedback(state):
        return state.retrieved_fact_ids[-1], state.predicted_answers[-1]

    def _stage1_decoded(self):
        examples = synthetic_examples(6, seed=3)
        config = run_config_from_dict({})
        states = stage1_states(examples, config, MockBackend())
        params = MoeParams.init(config.moe, config.seed)
        predict_states(states.values(), params)
        return list(states.values()), params

    def test_repeated_feedback_reuses_the_version_without_a_call(self):
        states, params = self._stage1_decoded()
        backend = _CountingBackend()
        reused = asked = 0
        for iteration in (1, 2, 3):
            for state in states:
                version, tags = self._direct(state, self._feedback(state))
                backend.tags.clear()
                run_feedback_iteration(state, backend)
                assert state.tree_versions[-1] == version
                if state.tree_versions[-1] is state.tree_versions[-2]:
                    assert iteration > 1  # a stage-1 tree is never reused
                    assert backend.tags == []
                    reused += 1
                else:
                    assert backend.tags == tags and "feedback" in tags
                    asked += iteration > 1
            predict_states(states, params)
        assert reused and asked

    def test_hand_appended_version_is_never_reused(self):
        states, params = self._stage1_decoded()
        backend = _CountingBackend()
        for _ in range(2):
            for state in states:
                run_feedback_iteration(state, backend)
            predict_states(states, params)
        converged = [s for s in states if s.tree_versions[2] is s.tree_versions[1]]
        assert converged
        for state in converged:
            # the same versions and decode, but appended here, not by the loop
            copy = PipelineState(question_id=state.question_id, question=state.question,
                                 base=state.base, tree_versions=state.tree_versions[:2])
            predict_states([copy], params)
            assert copy.retrieved_fact_ids == state.retrieved_fact_ids[:2]
            assert copy.predicted_answers == state.predicted_answers[:2]
            # an equal version appended by hand after the loop's own
            version, _ = self._direct(state, self._feedback(state))
            assert version == state.tree_versions[-1] and version is not state.tree_versions[-1]
            state.tree_versions.append(version)
            predict_states([state], params)
            for hand in (copy, state):
                backend.tags.clear()
                run_feedback_iteration(hand, backend)
                # asked again, but every step's premises are in a version
                assert backend.tags == ["feedback"]
                assert hand.tree_versions[-1] == version

    @pytest.mark.parametrize(
        "fed_back, tags",
        [
            (["fact1", "fact2"], ["feedback"]),  # version 0 concluded fact1 & fact2
            (["fact2", "fact3"], ["feedback", "intermediate_infer"]),
        ],
    )
    def test_known_premises_are_not_inferred_again(self, mock_backend, small_base, fed_back, tags):
        structure = parse_tree("fact1 & fact2 -> int1; int1 & fact3 -> answer")
        state = PipelineState(question_id="q1", question="q?", base=small_base,
                              tree_versions=[refine(structure, small_base, mock_backend)],
                              retrieved_fact_ids=[fed_back], predicted_answers=["deep"])
        backend = _CountingBackend()
        run_feedback_iteration(state, backend)
        assert backend.tags == tags
        version = state.tree_versions[-1]
        premises = [lookup_text(small_base, parse_node_id(fid)) for fid in fed_back]
        assert version.node_text(ANSWER) == "; therefore ".join(premises)

    @pytest.mark.parametrize(
        "fact_id, error", [("fact99", UnknownFactId), ("the harbor is deep.", TreeSyntaxError)]
    )
    def test_bad_fed_back_id_fails_its_example_alone(self, fact_id, error):
        """A retrieved id outside the fact base, or not an id, fails its
        example with no backend call; the other examples go on."""
        examples = synthetic_examples(4, seed=3)
        config = run_config_from_dict({})
        states = stage1_states(examples, config, MockBackend())
        predict_states(states.values(), MoeParams.init(config.moe, config.seed))
        bad = states[examples[1].id]
        bad.retrieved_fact_ids[-1] = ["fact1", fact_id]
        backend = _CountingBackend()
        pipeline._map_examples(
            2, lambda ex, state: run_feedback_iteration(state, backend), examples, states
        )
        assert bad.error_class is error and len(bad.tree_versions) == 1
        others = [s for s in states.values() if s is not bad]
        assert not any(s.failed for s in others)
        assert all(len(s.tree_versions) == 2 for s in others)
        assert backend.tags.count("feedback") == len(others)

    def test_requires_a_tree(self, mock_backend, small_base):
        state = PipelineState(question_id="q", question="q?", base=small_base)
        with pytest.raises(ValueError):
            run_feedback_iteration(state, mock_backend)

    def test_requires_the_current_tree_decoded(self, mock_backend):
        _, state, params = self._ready_state(mock_backend)
        with pytest.raises(ValueError, match="not been decoded"):
            run_feedback_iteration(state, mock_backend)
        self._iterate(state, params, mock_backend)
        with pytest.raises(ValueError, match="not been decoded"):
            run_feedback_iteration(state, mock_backend)
        assert len(state.tree_versions) == 2


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


class _LongFeedback(MockBackend):
    """Answers every feedback prompt for one question id with a chain over
    all its facts, whatever was fed back."""

    def __init__(self, question_id, **kwargs):
        super().__init__(**kwargs)
        self.marker = f"question id: {question_id}\n"

    def _do_feedback(self, prompt):
        if self.marker in prompt:
            return self._chain(re.findall(r"^(fact[0-9]+):", prompt, re.MULTILINE))
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

    def test_no_validation_example_left_runs_no_iteration(self):
        examples = synthetic_examples(4, seed=6)
        val_ids = validation_ids(examples, self._config().validation_fraction)
        backend = MockBackend(scripted_trees={i: "not a tree at all" for i in val_ids})
        states, summary = run_pipeline(examples, self._config(steps=5), backend)
        assert summary["failed"] == sorted(val_ids)
        assert summary["baseline_validation_em"] is None
        assert summary["iterations"] == []
        for example in examples:
            state = states[example.id]
            if example.id in val_ids:
                assert state.stopped_reason is None
                continue
            assert state.stopped_reason == STOP_NO_VALIDATION
            assert len(state.tree_versions) == len(state.predicted_answers) == 1

    def test_validation_failing_in_the_loop_stops_it(self):
        examples = synthetic_examples(4, seed=6)
        (val_id,) = validation_ids(examples, self._config().validation_fraction)
        states, summary = run_pipeline(
            examples, self._config(steps=5), _GarbledFeedback(val_id)
        )
        assert summary["failed"] == [val_id]
        assert summary["baseline_validation_em"] is not None
        assert summary["iterations"] == [{"iteration": 1, "validation_em": None}]
        for example in examples:
            if example.id != val_id:
                assert states[example.id].stopped_reason == STOP_NO_VALIDATION
                assert len(states[example.id].tree_versions) == 2

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

    def test_inference_fault_fails_alone(self):
        """One example's feedback tree is too long for the MoE core: that
        example fails in the inference pass after the feedback, and the other
        examples still decode their new trees."""
        examples = synthetic_examples(4, seed=5)
        bad = examples[1]
        backend = _LongFeedback(bad.id, scripted_trees={ex.id: "fact1 -> answer" for ex in examples})
        config = self._config(steps=5).to_json_dict()
        config["moe"]["max_seq_len"] = 64
        states, summary = run_pipeline(examples, run_config_from_dict(config), backend)
        assert summary["failed"] == [bad.id]
        assert states[bad.id].error.startswith("SequenceTooLong: ")
        assert len(states[bad.id].tree_versions) == 2
        assert len(states[bad.id].predicted_answers) == 1  # the first pass decoded it
        for example in examples:
            if example is bad:
                continue
            state = states[example.id]
            assert not state.failed
            assert state.stopped_reason in (STOP_BUDGET, STOP_NO_IMPROVEMENT)
            assert len(state.tree_versions) >= 2
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


    def test_scores_and_logits_match_per_position_forward(self, monkeypatch):
        """Inference runs the encoder and MoE layer once per distinct token id;
        the heads see what a per-position forward gives them."""
        example = synthetic_examples(1, seed=4)[0]
        base, tree = run_stage1(example, MockBackend())
        config = MoeConfig(embed_dim=8, vocab_size=64, n_frg_experts=2, n_qa_experts=2,
                           n_shared_experts=2, max_seq_len=512)
        params = MoeParams.init(config, 3)
        state = PipelineState(question_id=example.id, question=example.question, base=base)
        state.tree_versions.append(tree)
        seen = {}

        def recording(head, name):
            def wrapper(*args):
                out = head(*args)
                seen.setdefault(name, out[0])
                return out

            return wrapper

        for name in ("frg_forward", "qa_forward"):
            monkeypatch.setattr(moe, name, recording(getattr(moe, name), name))
        predict_pending(state, params)

        ids = token_ids(tree_to_text(tree), 64) + token_ids(example.question, 64)
        assert len(set(ids)) < len(ids)
        enc = moe.encode(params, ids)
        fact_ids = [token_ids(text, 64) for text in base.texts()]
        fact_feats = moe.fact_features(
            moe.encode(params, [t for f in fact_ids for t in f]),
            np.array([len(f) for f in fact_ids]),
        )
        layout, fact_layout = moe._Ragged([len(ids)]), moe._Ragged([len(fact_ids)])
        steps, answer_len = seen["frg_forward"].shape[1], seen["qa_forward"].shape[1]
        scores, _ = frg_forward(params, moe_forward(params, config, enc, GATE_A)[0], layout,
                                fact_feats, fact_layout, steps)
        logits, _ = qa_forward(params, moe_forward(params, config, enc, GATE_B)[0], layout,
                               answer_len)
        np.testing.assert_allclose(seen["frg_forward"], scores, rtol=0, atol=1e-12)
        np.testing.assert_allclose(seen["qa_forward"], logits, rtol=0, atol=1e-12)

    def test_decode_after_training_in_place_uses_the_trained_params(self):
        """Decode, train the same params in place, iterate and decode again:
        the new versions decode as a fresh decode with the trained params."""
        examples = synthetic_examples(6, seed=3)
        config = run_config_from_dict({"training": {"steps": 5, "learning_rate": 0.05}})
        backend = MockBackend()
        states = stage1_states(examples, config, backend)
        params = MoeParams.init(config.moe, config.seed)
        predict_states(states.values(), params)
        assert train(params, config, build_train_items(examples, states, config.moe))
        for state in states.values():
            run_feedback_iteration(state, backend)
        predict_states(states.values(), params)

        for state in states.values():
            fresh = PipelineState(
                question_id=state.question_id, question=state.question, base=state.base,
                tree_versions=list(state.tree_versions),
                frg_targets=state.frg_targets, qa_targets=state.qa_targets,
            )
            predict_states([fresh], params)
            assert state.losses[1] == pytest.approx(fresh.losses[1], rel=0, abs=1e-12)
            assert state.predicted_answers[1] == fresh.predicted_answers[1]
            assert state.retrieved_fact_ids[1] == fresh.retrieved_fact_ids[1]

    @staticmethod
    def _ragged_states(vocab):
        """States of one to three pending versions with different leaf counts,
        fact bases of different sizes, every other one without targets."""
        backend = MockBackend()
        states = []
        for i, example in enumerate(synthetic_examples(12, seed=9)):
            base, tree = run_stage1(example, backend, top_n=2 + i % 3)
            state = PipelineState(question_id=example.id, question=example.question, base=base)
            state.tree_versions.append(tree)
            for chain in (["fact2", "fact1"], ["fact1"])[: i % 3]:
                structure = parse_tree(MockBackend._chain(chain[: len(base)]))
                state.tree_versions.append(refine(structure, base, backend))
            if i % 2 == 0:
                state.frg_targets, state.qa_targets = stage2_targets(example, base, tree, vocab)
            states.append(state)
        return states

    _CONFIG = MoeConfig(embed_dim=8, vocab_size=2048, n_frg_experts=2, n_qa_experts=2,
                        n_shared_experts=2, max_seq_len=512)

    @pytest.mark.parametrize("decode_answer_len", [1, 8, 13])
    def test_batched_pass_matches_each_state_alone(self, monkeypatch, decode_answer_len):
        params = MoeParams.init(self._CONFIG, 2)
        batched, alone = self._ragged_states(2048), self._ragged_states(2048)
        assert len({len(s.base) for s in batched}) > 1
        assert len({len(leaf_preorder(t)) for s in batched for t in s.tree_versions}) > 1

        outputs, calls = {}, []
        record, route = pipeline._record_version, moe.moe_forward

        def recording(state, step_count, scores, logits, answer_len):
            key = (id(state), len(state.predicted_answers))
            outputs[key] = scores.copy(), logits.copy()
            record(state, step_count, scores, logits, answer_len)

        def counting(*args):
            calls.append(args[3])
            return route(*args)

        monkeypatch.setattr(pipeline, "_record_version", recording)
        monkeypatch.setattr(moe, "moe_forward", counting)
        predict_states(batched, params, decode_answer_len)
        versions = sum(len(s.tree_versions) for s in batched)
        assert 2 < len(calls) < 2 * versions  # several micro-batches of several versions
        monkeypatch.setattr(moe, "DECODE_LOGITS", 1)  # one version per micro-batch
        for state in alone:
            predict_pending(state, params, decode_answer_len)

        for b, a in zip(batched, alone):
            assert not b.failed and not a.failed
            assert len(b.predicted_answers) == len(b.tree_versions)
            assert b.predicted_answers == a.predicted_answers
            assert b.retrieved_fact_ids == a.retrieved_fact_ids
            assert (b.losses[0] is None) == (b.frg_targets is None)
            for lb, la in zip(b.losses, a.losses):
                assert lb == la if lb is None else lb == pytest.approx(la, rel=0, abs=1e-12)
            for version in range(len(b.tree_versions)):
                for xb, xa in zip(outputs[id(b), version], outputs[id(a), version]):
                    assert xb.shape == xa.shape
                    np.testing.assert_allclose(xb, xa, rtol=0, atol=1e-12)

    def test_failed_version_leaves_the_others_as_if_absent(self):
        params = MoeParams.init(self._CONFIG, 2)
        with_bad, without = self._ragged_states(2048), self._ragged_states(2048)
        bad = with_bad[3]
        bad.question = "word " * 600  # its pending versions exceed max_seq_len
        predict_states(with_bad, params)
        predict_states(without[:3] + without[4:], params)
        assert bad.error.startswith("SequenceTooLong: ")
        assert bad.predicted_answers == bad.retrieved_fact_ids == bad.losses == []
        for b, a in zip(with_bad[:3] + with_bad[4:], without[:3] + without[4:]):
            assert not b.failed
            assert b.predicted_answers == a.predicted_answers
            assert b.retrieved_fact_ids == a.retrieved_fact_ids
            for lb, la in zip(b.losses, a.losses):
                assert lb == la if lb is None else lb == pytest.approx(la, rel=0, abs=1e-12)

    def test_fact_texts_are_tokenized_once(self, monkeypatch):
        """Each state keeps the item of its newest version: training and the
        first decode share version 0's item, a feedback version with a new
        text tokenizes only its tree text and question, and a version
        appended again tokenizes nothing."""
        examples = synthetic_examples(3, seed=3)
        config = run_config_from_dict({})
        backend, params = MockBackend(), MoeParams.init(config.moe, config.seed)
        states = stage1_states(examples, config, backend)
        items = build_train_items(examples, states, config.moe)
        assert len(items) == len(states)
        for item, state in zip(items, states.values()):
            assert item is state.item
        tokenized, hashes = [], moe._token_hashes
        monkeypatch.setattr(moe, "_token_hashes", lambda text: tokenized.append(text) or hashes(text))
        predict_states(states.values(), params)
        assert tokenized == []

        for state in states.values():
            run_feedback_iteration(state, backend)
        new = [s for s in states.values() if s.item.tree_text != tree_to_text(s.tree_versions[1])]
        assert new
        predict_states(states.values(), params)
        expected = [text for s in new for text in (s.item.tree_text, s.question)]
        assert sorted(tokenized) == sorted(expected)
        for item, state in zip(items, states.values()):
            assert state.item.fact_hashes is item.fact_hashes

        tokenized.clear()
        for state in states.values():
            state.tree_versions.append(state.tree_versions[-1])
        predict_states(states.values(), params)
        assert tokenized == []
        assert all(len(s.predicted_answers) == 3 and not s.failed for s in states.values())

    def test_empty_fact_base_fails_only_its_example(self):
        examples = synthetic_examples(2, seed=1)
        config = run_config_from_dict({})
        empty, other = stage1_states(examples, config, MockBackend()).values()
        empty.base = FactBase(empty.question_id)
        predict_states([empty, other], MoeParams.init(config.moe, config.seed))
        assert empty.error.startswith("NoFacts: ")
        assert empty.predicted_answers == []
        assert not other.failed
        assert len(other.predicted_answers) == len(other.tree_versions) == 1


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
