"""End-to-end orchestration: stage-1 tree initialization, stage-2 joint
training, and the iterative feedback loop with its stopping rule.

Per example the loop keeps a ``PipelineState``: its fact base, every tree
version, the fact ids retrieved from each version, the decoded answer per
version, and the joint loss when gold targets are known. Examples are
independent; iterations within one example are strictly sequential. Failures
are per-example: a malformed backend response marks that example failed, and
every later pass skips it while the batch continues.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import metrics
from .dataset import QAExample, RunConfig
from .errors import EmptyEvidence, EntailQAError, MoeError, SchemaError, TreeError
from .facts import IMAGE, TABLE, FactBase, add_fact, linearize_table, lookup_text, retrieve_evidence
from .llm import (
    Backend,
    decompose_atomic,
    decompose_question,
    generate_tree_structure,
    refine_to_fact,
    table_qa,
    text_qa,
    vqa_answer,
)
from .moe import (
    GATE_A,
    GATE_B,
    MoeConfig,
    MoeParams,
    TrainItem,
    answer_token_targets,
    backward_and_step,
    build_lexicon,
    check_train_item,
    decode_answer,
    encode,
    fact_features,
    frg_forward,
    greedy_answer_ids,
    losses,
    moe_forward,
    qa_forward,
)
from .refine import refine, tree_to_text
from .tree import EntailmentTree, leaf_id, leaf_preorder, parse_node_id, parse_tree, score_tree, serialize_tree

STOP_BUDGET = "budget"
STOP_NO_IMPROVEMENT = "no_improvement"


@dataclass
class PipelineState:
    """Per-example record across feedback iterations."""

    question_id: str
    question: str
    base: Optional[FactBase] = None
    tree_versions: list[EntailmentTree] = field(default_factory=list)
    retrieved_fact_ids: list[list[str]] = field(default_factory=list)
    predicted_answers: list[str] = field(default_factory=list)
    losses: list[Optional[float]] = field(default_factory=list)
    stopped_reason: Optional[str] = None
    error: Optional[str] = None
    frg_targets: Optional[tuple[int, ...]] = None
    qa_targets: Optional[tuple[int, ...]] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def iteration(self) -> int:
        return max(len(self.tree_versions) - 1, 0)

    def to_json_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "question": self.question,
            "iteration": self.iteration,
            "tree_versions": [
                {"dsl": serialize_tree(t), **t.to_json_dict()}
                for t in self.tree_versions
            ],
            "retrieved_fact_ids": self.retrieved_fact_ids,
            "predicted_answers": self.predicted_answers,
            "losses": self.losses,
            "stopped_reason": self.stopped_reason,
            "error": self.error,
            "frg_targets": list(self.frg_targets) if self.frg_targets else None,
            "qa_targets": list(self.qa_targets) if self.qa_targets else None,
        }


def run_stage1(
    example: QAExample, backend: Backend, top_n: int = 4
) -> tuple[FactBase, EntailmentTree]:
    """Retrieve, decompose, answer per modality, refine facts, build the tree."""
    if not example.evidence:
        raise EmptyEvidence(f"example {example.id} has no evidence")
    retrieved = retrieve_evidence(example.question, list(example.evidence), top_n)
    by_id = {ev.id: ev for ev in retrieved}

    base = FactBase(example.id)
    for sub in decompose_question(backend, example.question, retrieved):
        ev = by_id[sub.evidence_id]
        if ev.modality == IMAGE:
            # lazy: each atomic question is answered just before its fact is refined
            pairs = (
                (atomic, vqa_answer(backend, atomic, ev))
                for atomic in decompose_atomic(backend, sub.question, ev)
            )
        elif ev.modality == TABLE:
            rows = linearize_table(ev.content)
            pairs = [(sub.question, table_qa(backend, sub.question, rows))]
        else:
            pairs = [(sub.question, text_qa(backend, sub.question, str(ev.content)))]
        for question, answer in pairs:
            text = refine_to_fact(backend, question, answer)
            base = add_fact(base, text, ev.modality, ev.id, origin=(question, answer))

    structure = generate_tree_structure(backend, example.question, base)
    return base, refine(structure, base, backend)


def stage2_targets(
    example: QAExample, base: FactBase, initial_tree: EntailmentTree, vocab_size: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """0-based gold fact indices (gold tree, else gold supports, else the
    initial tree's own leaves) and gold answer token ids."""
    frg: list[int] = []
    if example.gold_tree:
        leaves = leaf_preorder(parse_tree(example.gold_tree))
        if all(1 <= leaf.index <= len(base) for leaf in leaves):
            frg = [leaf.index - 1 for leaf in leaves]
    if not frg and example.gold_support_ids:
        gold = set(example.gold_support_ids)
        frg = [
            i for i, fact in enumerate(base.facts) if fact.source_evidence_id in gold
        ]
    if not frg:
        frg = [leaf.index - 1 for leaf in leaf_preorder(initial_tree)]
    qa = answer_token_targets(example.gold_answers()[0], vocab_size)
    return tuple(frg), qa


def predict_pending(
    state: PipelineState, params: MoeParams, decode_answer_len: int = 8
) -> None:
    """Run stage-2 inference for every tree version not yet decoded."""
    pending = state.tree_versions[len(state.predicted_answers) :]
    if not pending:
        return
    config = params.config
    lexicon = build_lexicon(state.base.texts() + [state.question], config.vocab_size)
    ff = fact_features(params, state.base)
    scored = bool(state.frg_targets and state.qa_targets)
    for tree in pending:
        enc = encode(params, tree_to_text(tree), state.question)
        step_count = len(leaf_preorder(tree))
        # query rows are independent: one forward per head at the longer
        # length serves both the decode and the loss
        frg_steps, qa_len = step_count, decode_answer_len
        if scored:
            frg_steps = max(frg_steps, len(state.frg_targets))
            qa_len = max(qa_len, len(state.qa_targets))

        out_a = moe_forward(params, config, enc, GATE_A)
        scores = frg_forward(params, out_a, ff, frg_steps)
        picks = []
        for row in scores[:step_count]:
            idx = int(np.argmax(row))
            if idx not in picks:
                picks.append(idx)
        retrieved = [leaf_id(i + 1).render() for i in picks]

        out_b = moe_forward(params, config, enc, GATE_B)
        logits = qa_forward(params, out_b, qa_len)
        answer = decode_answer(greedy_answer_ids(logits[:decode_answer_len]), lexicon)

        loss = None
        if scored:
            _, _, loss = losses(
                scores[: len(state.frg_targets)],
                state.frg_targets,
                logits[: len(state.qa_targets)],
                state.qa_targets,
            )

        state.retrieved_fact_ids.append(retrieved)
        state.predicted_answers.append(answer)
        state.losses.append(loss)


def run_feedback_iteration(
    state: PipelineState, params: MoeParams, backend: Backend, decode_answer_len: int = 8
) -> PipelineState:
    """Retrieve + answer from the current tree, feed both back, regenerate."""
    if not state.tree_versions:
        raise ValueError("state has no current tree")
    predict_pending(state, params, decode_answer_len)
    base = state.base
    retrieved = state.retrieved_fact_ids[-1]
    answer = state.predicted_answers[-1]
    feedback = (
        [lookup_text(base, parse_node_id(fid)) for fid in retrieved],
        answer,
    )
    structure = generate_tree_structure(backend, state.question, base, feedback)
    state.tree_versions.append(refine(structure, base, backend))
    return state


def should_stop(
    scores: Sequence[float], budget: int, min_delta: float = 0.0
) -> tuple[bool, Optional[str]]:
    """Stop on a flat validation metric, else on the iteration budget."""
    if not scores:
        raise ValueError("need at least one validation score")
    if len(scores) >= 2 and scores[-1] - scores[-2] <= min_delta:
        return True, STOP_NO_IMPROVEMENT
    if len(scores) >= budget:
        return True, STOP_BUDGET
    return False, None


# --- training ---------------------------------------------------------------------


def build_train_items(
    examples: Sequence[QAExample],
    states: dict[str, PipelineState],
    config: MoeConfig,
) -> list[TrainItem]:
    """Tokenized training items, one per example that passed stage 1.

    An example the MoE core cannot take (its tree text plus question exceeds
    ``max_seq_len``, say) is marked failed in ``states`` and left out.
    """
    items = []
    for example in examples:
        state = states.get(example.id)
        if state is None or state.failed or not state.tree_versions:
            continue
        item = TrainItem(
            tree_text=tree_to_text(state.tree_versions[0]),
            question=example.question,
            fact_texts=tuple(state.base.texts()),
            frg_targets=state.frg_targets,
            qa_targets=state.qa_targets,
        )
        try:
            check_train_item(item, config)
        except MoeError as exc:
            state.error = f"{type(exc).__name__}: {exc}"
            continue
        items.append(item)
    return items


def train(
    params: MoeParams, config: RunConfig, items: Sequence[TrainItem]
) -> list[float]:
    """Seeded training loop; each step draws a retrieval batch and a QA batch.

    Each step's micro-batches run on one thread per core; the result does not
    depend on the number of threads.
    """
    if not items:
        return []
    rng = np.random.default_rng(config.seed)
    frg_pool = [item.without_qa() for item in items if item.frg_targets]
    qa_pool = [item.without_frg() for item in items if item.qa_targets]
    curve = []
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for _ in range(config.training.steps):
            batch: list[TrainItem] = []
            if frg_pool:
                size = min(config.training.batch_size_retrieval, len(frg_pool))
                chosen = rng.choice(len(frg_pool), size=size, replace=False)
                batch.extend(frg_pool[i] for i in chosen)
            if qa_pool:
                size = min(config.training.batch_size_qa, len(qa_pool))
                chosen = rng.choice(len(qa_pool), size=size, replace=False)
                batch.extend(qa_pool[i] for i in chosen)
            params, loss = backward_and_step(
                params,
                params.config,
                batch,
                config.training.learning_rate,
                weight_decay=config.training.weight_decay,
                pool=pool,
            )
            curve.append(loss)
    return curve


# --- full pipeline -----------------------------------------------------------------


def validation_ids(examples: Sequence[QAExample], fraction: float) -> set[str]:
    n = max(1, int(round(len(examples) * fraction)))
    return {ex.id for ex in examples[-n:]}


def _validation_em(
    examples: Sequence[QAExample],
    states: dict[str, PipelineState],
    val_ids: set[str],
) -> float:
    scores = [
        metrics.em(states[ex.id].predicted_answers[-1], ex.gold_answers())
        for ex in examples
        if ex.id in val_ids and not states[ex.id].failed
    ]
    return float(np.mean(scores)) if scores else 0.0


def _map_examples(
    workers: int,
    work: Callable[[QAExample, PipelineState], None],
    examples: Sequence[QAExample],
    states: dict[str, PipelineState],
) -> None:
    """``work(example, state)`` for every example that has not failed, on
    ``workers`` threads. An ``EntailQAError`` becomes that example's
    ``state.error``; the other examples go on."""

    def _one(example: QAExample) -> None:
        state = states[example.id]
        if state.failed:
            return
        try:
            work(example, state)
        except EntailQAError as exc:
            state.error = f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_one, examples))


def stage1_states(
    examples: Sequence[QAExample],
    config: RunConfig,
    backend: Backend,
) -> dict[str, PipelineState]:
    """Stage 1 over a corpus on ``config.workers`` threads; failures are
    recorded per example, not raised."""

    def _stage1(example: QAExample, state: PipelineState) -> None:
        base, tree = run_stage1(example, backend, top_n=config.retrieval_top_n)
        state.tree_versions.append(tree)
        state.frg_targets, state.qa_targets = stage2_targets(
            example, base, tree, config.moe.vocab_size
        )
        state.base = base

    states = {
        ex.id: PipelineState(question_id=ex.id, question=ex.question) for ex in examples
    }
    _map_examples(config.workers, _stage1, examples, states)
    return states


def run_pipeline(
    examples: Sequence[QAExample],
    config: RunConfig,
    backend: Backend,
) -> tuple[dict[str, PipelineState], dict]:
    """Stage 1 on every example, stage-2 training, then the feedback loop.

    Stage 1, the first inference pass and each feedback iteration run across
    examples on ``config.workers`` threads; an iteration ends at a barrier,
    where the stopping rule reads the validation score. Returns (states by
    id, run summary).
    """
    params = MoeParams.init(config.moe, config.seed)

    def _infer(example: QAExample, state: PipelineState) -> None:
        predict_pending(state, params, config.decode_answer_len)

    def _iterate(example: QAExample, state: PipelineState) -> None:
        run_feedback_iteration(state, params, backend, config.decode_answer_len)
        _infer(example, state)

    states = stage1_states(examples, config, backend)

    items = build_train_items(examples, states, config.moe)
    curve = train(params, config, items)

    val_ids = validation_ids(examples, config.validation_fraction)
    _map_examples(config.workers, _infer, examples, states)
    baseline_em = _validation_em(examples, states, val_ids)

    history: list[float] = []
    for _ in range(config.iteration_budget):
        _map_examples(config.workers, _iterate, examples, states)
        history.append(_validation_em(examples, states, val_ids))
        stop, reason = should_stop(
            history, config.iteration_budget, config.min_delta
        )
        if stop:
            for state in states.values():
                if not state.failed:
                    state.stopped_reason = reason
            break

    summary = {
        "examples": len(examples),
        "failed": sorted(ex.id for ex in examples if states[ex.id].failed),
        "train_steps": len(curve),
        "initial_loss": curve[0] if curve else None,
        "final_loss": curve[-1] if curve else None,
        "baseline_validation_em": baseline_em,
        "iterations": [
            {"iteration": i, "validation_em": em} for i, em in enumerate(history, 1)
        ],
        "validation_ids": sorted(val_ids),
    }
    return states, summary


# --- prediction evaluation -----------------------------------------------------------


def evaluate_predictions(
    examples: Sequence[QAExample], predictions: Sequence[dict]
) -> dict:
    """Aggregate EM / word F1 / retrieval F1 / tree scores over the gold set.

    Prediction entries: {"id", "answer", "retrieved_evidence_ids"?, "tree"?}.
    A gold example without a prediction scores as an empty answer that
    retrieved nothing; a prediction whose id is missing or not in the gold
    set is a ``SchemaError``.
    """
    gold_ids = {ex.id for ex in examples}
    for i, pred in enumerate(predictions):
        if pred.get("id") not in gold_ids:
            raise SchemaError(f"prediction id {pred.get('id')!r} is not in the gold set", f"/predictions/{i}/id")
    by_id = {pred["id"]: pred for pred in predictions}
    em_scores, f1_scores, retrieval, tree_scores = [], [], [], []
    for example in examples:
        pred = by_id.get(example.id, {"answer": "", "retrieved_evidence_ids": []})
        answer = pred.get("answer", "")
        em_scores.append(metrics.em(answer, example.gold_answers()))
        f1_scores.append(metrics.word_f1(answer, example.gold_answers()))
        if example.gold_support_ids and pred.get("retrieved_evidence_ids") is not None:
            retrieval.append(
                metrics.retrieval_f1(
                    pred["retrieved_evidence_ids"], example.gold_support_ids
                )
            )
        if example.gold_tree and pred.get("tree"):
            try:
                tree_scores.append(
                    score_tree(
                        parse_tree(pred["tree"]), parse_tree(example.gold_tree)
                    )
                )
            except TreeError:
                tree_scores.append(None)

    def _mean(values):
        return float(np.mean(values)) if values else None

    tree_ok = [t for t in tree_scores if t is not None]
    return {
        "count": len(em_scores),
        "em": _mean(em_scores),
        "f1": _mean(f1_scores),
        "retrieval": {
            "p": _mean([r.precision for r in retrieval]),
            "r": _mean([r.recall for r in retrieval]),
            "f1": _mean([r.f1 for r in retrieval]),
        },
        "tree": {
            "count": len(tree_scores),
            "unparseable": len(tree_scores) - len(tree_ok),
            "leaves": _mean([t.leaves_correct for t in tree_ok]),
            "steps": _mean([t.steps_correct for t in tree_ok]),
            "intermediates": _mean([t.intermediates_correct for t in tree_ok]),
            "all": _mean([t.all_correct for t in tree_ok]),
        },
    }
