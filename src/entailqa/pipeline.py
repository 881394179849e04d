"""End-to-end orchestration: stage-1 tree initialization, stage-2 joint
training, and the iterative feedback loop with its stopping rule.

Per example the loop keeps a ``PipelineState``: its fact base, every tree
version, the fact ids retrieved from each version, the decoded answer per
version, and the joint loss when gold targets are known. Examples are
independent; iterations within one example are strictly sequential. Backend
work runs across examples on a thread pool; stage-2 inference runs at each
barrier on the calling thread, as one pass that decodes every pending tree
version of every example in micro-batches. Failures are per-example: a
malformed backend response or a tree the MoE core cannot take marks that
example failed, and every later pass skips it while the batch continues.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import metrics
from .dataset import QAExample, RunConfig
from .errors import EmptyEvidence, EntailQAError, MoeError, NonFiniteLoss, SchemaError, TreeError
from .facts import IMAGE, FactBase, add_fact, retrieve_evidence
from .llm import (
    Backend,
    answer_questions,
    decompose_atomic,
    decompose_question,
    generate_tree_structure,
    refine_to_facts,
)
from .moe import (
    MoeConfig,
    MoeParams,
    TrainItem,
    answer_token_targets,
    backward_and_step,
    build_lexicon,
    check_train_item,
    decode_answer,
    decode_items,
    greedy_answer_ids,
    losses,
)
from .refine import refine, tree_to_text
from .tree import EntailmentTree, leaf_id, leaf_preorder, parse_tree, score_tree

STOP_BUDGET = "budget"
STOP_NO_IMPROVEMENT = "no_improvement"
STOP_NO_VALIDATION = "no_validation"  # every validation example failed


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
    # the class of the error that failed the example; not serialized
    error_class: Optional[type] = field(default=None, repr=False, compare=False)
    frg_targets: Optional[tuple[int, ...]] = None
    qa_targets: Optional[tuple[int, ...]] = None
    # (vocab_size, lexicon) of predict_states, and the stage-2 item of the
    # newest version tokenized (_version_item); not serialized
    lexicon: Optional[tuple[int, dict[int, str]]] = field(
        default=None, repr=False, compare=False
    )
    item: Optional[TrainItem] = field(default=None, repr=False, compare=False)
    # ((backend, question, fact base, feedback), version) of the last
    # feedback iteration that asked the backend; not serialized
    last_request: Optional[tuple[tuple, EntailmentTree]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def failed(self) -> bool:
        return self.error is not None

    def fail(self, exc: EntailQAError) -> None:
        """Mark the example failed with the error's class and message."""
        self.error, self.error_class = f"{type(exc).__name__}: {exc}", type(exc)

    @property
    def iteration(self) -> int:
        return max(len(self.tree_versions) - 1, 0)

    def to_json_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "question": self.question,
            "iteration": self.iteration,
            "tree_versions": [t.to_json_dict() for t in self.tree_versions],
            "retrieved_fact_ids": self.retrieved_fact_ids,
            "predicted_answers": self.predicted_answers,
            "losses": self.losses,
            "stopped_reason": self.stopped_reason,
            "error": self.error,
            "frg_targets": list(self.frg_targets) if self.frg_targets else None,
            "qa_targets": list(self.qa_targets) if self.qa_targets else None,
        }


def run_stage1(
    example: QAExample, backend: Backend, top_n: int = RunConfig.retrieval_top_n
) -> tuple[FactBase, EntailmentTree]:
    """Retrieve, decompose, split the image sub-questions into atomic ones,
    answer in one call per modality, refine every answer to a fact in one
    call, build the tree. Facts keep the sub-question order."""
    if not example.evidence:
        raise EmptyEvidence(f"example {example.id} has no evidence")
    retrieved = retrieve_evidence(example.question, list(example.evidence), top_n)
    by_id = {ev.id: ev for ev in retrieved}
    subs = [(sub.question, by_id[sub.evidence_id])
            for sub in decompose_question(backend, example.question, retrieved)]
    images = [sub for sub in subs if sub[1].modality == IMAGE]
    atomic = iter(decompose_atomic(backend, images) if images else ())
    questions = []  # (question, evidence), an image's atomic questions in its place
    for question, ev in subs:
        questions += [(q, ev) for q in next(atomic)] if ev.modality == IMAGE else [(question, ev)]
    pairs = [(q, answer) for (q, _), answer in zip(questions, answer_questions(backend, questions))]

    base = FactBase(example.id)
    for (_, ev), pair, text in zip(questions, pairs, refine_to_facts(backend, pairs)):
        base = add_fact(base, text, ev.modality, ev.id, origin=pair)

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


def _version_item(state: PipelineState, tree: EntailmentTree) -> TrainItem:
    """The stage-2 item of ``tree``, a version of ``state``, kept on the state:
    a new tree text is tokenized with the question, the facts only the first
    time, and the kept text gets the kept item."""
    text = tree_to_text(tree)
    if state.item is None:
        facts = tuple(state.base.texts())
        state.item = TrainItem(text, state.question, facts, state.frg_targets, state.qa_targets)
    elif state.item.tree_text != text:
        state.item = replace(state.item, tree_text=text, bag_hashes=None)
    return state.item


def _pending_items(
    state: PipelineState, config: MoeConfig, decode_answer_len: int
) -> list[tuple[int, tuple[TrainItem, int, int]]]:
    """(leaf count, checked version) of each tree version of ``state`` not
    yet decoded; a version is (item, retrieval steps, answer positions) as
    ``moe.decode_items`` takes it.

    The fact base does not change across versions, so the lexicon is built
    once per example and vocabulary size.
    """
    trees = state.tree_versions[len(state.predicted_answers) :]
    if not trees:
        return []
    if state.lexicon is None or state.lexicon[0] != config.vocab_size:
        texts = state.base.texts() + [state.question]
        state.lexicon = (config.vocab_size, build_lexicon(texts, config.vocab_size))
    scored = bool(state.frg_targets and state.qa_targets)
    pending = []
    for tree in trees:
        step_count = len(leaf_preorder(tree))
        # query rows are independent: one forward per head at the longer
        # length serves both the decode and the loss
        frg_steps, qa_len = step_count, decode_answer_len
        if scored:
            frg_steps = max(frg_steps, len(state.frg_targets))
            qa_len = max(qa_len, len(state.qa_targets))
        item = _version_item(state, tree)
        check_train_item(item, config, frg_steps, qa_len)
        pending.append((step_count, (item, frg_steps, qa_len)))
    return pending


def _record_version(
    state: PipelineState,
    step_count: int,
    scores: np.ndarray,
    logits: np.ndarray,
    decode_answer_len: int,
) -> None:
    """Append one decoded version's retrieved fact ids, answer and loss; a
    version whose scores or logits are not finite records nothing."""
    if not (np.isfinite(scores).all() and np.isfinite(logits).all()):
        raise NonFiniteLoss("the decoded scores or logits are not finite")
    picks = dict.fromkeys(np.argmax(scores[:step_count], axis=1).tolist())
    answer_ids = greedy_answer_ids(logits[:decode_answer_len])
    loss = None
    if state.frg_targets and state.qa_targets:
        _, _, loss = losses(
            scores[: len(state.frg_targets)],
            state.frg_targets,
            logits[: len(state.qa_targets)],
            state.qa_targets,
        )
    state.retrieved_fact_ids.append([leaf_id(i + 1).render() for i in picks])
    state.predicted_answers.append(decode_answer(answer_ids, state.lexicon[1]))
    state.losses.append(loss)


def predict_states(
    states: Iterable[PipelineState],
    params: MoeParams,
    decode_answer_len: int = RunConfig.decode_answer_len,
) -> None:
    """Stage-2 inference for every tree version not yet decoded, over every
    state that has not failed, on the calling thread.

    Each pending version is checked first; a version that fails its check
    fails its example, whose versions then stay out of the pass. The rest
    are decoded together in micro-batches (``moe.decode_items``), and a
    version whose decode is not finite fails its example.
    """
    pending: list[tuple[PipelineState, int, tuple[TrainItem, int, int]]] = []
    for state in states:
        if state.failed:
            continue
        try:
            versions = _pending_items(state, params.config, decode_answer_len)
        except EntailQAError as exc:
            state.fail(exc)
            continue
        pending.extend((state, step_count, v) for step_count, v in versions)

    decoded = decode_items(params, [version for _, _, version in pending])
    for state, step_count, _ in pending:
        scores, logits = next(decoded)
        if not state.failed:
            try:
                _record_version(state, step_count, scores, logits, decode_answer_len)
            except EntailQAError as exc:
                state.fail(exc)
        del scores, logits  # so that their micro-batch is freed before the next


def predict_pending(
    state: PipelineState,
    params: MoeParams,
    decode_answer_len: int = RunConfig.decode_answer_len,
) -> None:
    """``predict_states`` for one state."""
    predict_states([state], params, decode_answer_len)


def run_feedback_iteration(state: PipelineState, backend: Backend) -> PipelineState:
    """Feed the current tree's retrieved facts and answer back, regenerate.

    The current tree must have been decoded (``predict_states``). An example
    whose feedback repeats is not asked again: when the current tree is the
    one this function got from the same backend for the same question, fact
    base and feedback, that tree is appended again with no backend call. The
    backend is taken to be deterministic (``HttpBackend`` posts
    ``temperature`` 0.0). A tree from stage 1 or appended by hand is never
    reused. A regenerated tree's conclusions are asked for in one
    ``intermediate_infer`` call; for the same reason a step whose ordered
    premise texts a step of any version of this example has takes that
    step's conclusion unasked, and a tree whose every step does makes none.
    """
    if not state.tree_versions:
        raise ValueError("state has no current tree")
    if len(state.predicted_answers) != len(state.tree_versions):
        raise ValueError("the current tree has not been decoded")
    base = state.base
    feedback = (state.retrieved_fact_ids[-1], state.predicted_answers[-1])
    request = (backend, state.question, base, feedback)
    if state.last_request is not None:
        asked, version = state.last_request
        if version is state.tree_versions[-1] and asked == request:
            state.tree_versions.append(version)
            return state
    structure = generate_tree_structure(backend, state.question, base, feedback)
    version = refine(structure, base, backend, state.tree_versions)
    state.tree_versions.append(version)
    state.last_request = (request, version)
    return state


def should_stop(scores: Sequence[float], budget: int) -> tuple[bool, Optional[str]]:
    """Stop on a flat validation metric, else on the iteration budget."""
    if not scores:
        raise ValueError("need at least one validation score")
    if len(scores) >= 2 and scores[-1] <= scores[-2]:
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
        item = _version_item(state, state.tree_versions[0])
        try:
            check_train_item(item, config)
        except MoeError as exc:
            state.fail(exc)
            continue
        items.append(item)
    return items


def train(
    params: MoeParams, config: RunConfig, items: Sequence[TrainItem]
) -> list[float]:
    """Seeded training loop; each step draws a retrieval batch and a QA batch
    and takes one AdamW step on the calling thread."""
    if not items:
        return []
    rng = np.random.default_rng(config.seed)
    frg_pool = [replace(item, qa_targets=None) for item in items if item.frg_targets]
    qa_pool = [replace(item, frg_targets=None) for item in items if item.qa_targets]
    curve = []
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
) -> Optional[float]:
    """Mean EM over the validation examples that have not failed; None when
    none is left."""
    scores = [
        metrics.em(states[ex.id].predicted_answers[-1], ex.gold_answers())
        for ex in examples
        if ex.id in val_ids and not states[ex.id].failed
    ]
    return float(np.mean(scores)) if scores else None


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
            state.fail(exc)

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

    Stage 1 and the backend half of each feedback iteration run across
    examples on ``config.workers`` threads. Inference is its own pass on the
    calling thread (``predict_states``): once after training, and once after
    each feedback pass. An iteration ends there, at a barrier, where the
    stopping rule reads the validation score. Once every validation example
    has failed there is no score, and the loop stops with
    ``STOP_NO_VALIDATION``. Returns (states by id, run summary).
    """
    params = MoeParams.init(config.moe, config.seed)

    def _iterate(example: QAExample, state: PipelineState) -> None:
        run_feedback_iteration(state, backend)

    states = stage1_states(examples, config, backend)

    # not kept: a version-0 item is freed once its state moves past it
    curve = train(params, config, build_train_items(examples, states, config.moe))

    val_ids = validation_ids(examples, config.validation_fraction)
    predict_states(states.values(), params, config.decode_answer_len)
    baseline_em = _validation_em(examples, states, val_ids)

    history: list[Optional[float]] = []
    reason = STOP_NO_VALIDATION if baseline_em is None else None
    while reason is None and len(history) < config.iteration_budget:
        _map_examples(config.workers, _iterate, examples, states)
        predict_states(states.values(), params, config.decode_answer_len)
        em = _validation_em(examples, states, val_ids)
        history.append(em)
        if em is None:
            reason = STOP_NO_VALIDATION
        else:
            _, reason = should_stop(history, config.iteration_budget)
    for state in states.values():
        if not state.failed:
            state.stopped_reason = reason

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
