"""Desk-scale joint fact-retrieval-generation / question-answering core.

Shared encoder stand-in (hashed embedding -> linear -> tanh), two top-K gates
over task-specific plus shared expert pools, per-token expert FFNs with a
residual add, and two cross-attention decoder heads:

* FRG head: learned step queries attend over the routed sequence, then the
  result attends over per-fact mean features, producing one score vector over
  the facts per retrieval step.
* QA head: learned position queries attend over the routed sequence only (no
  access to fact features) and project to vocabulary logits.

Nothing depends on a token's position, so the encoder and MoE layer run once
per distinct token id, and the heads attend over a sequence's bag of distinct
ids with the log of each id's count added to its score, which equals
attention over the positions. Training (``batch_gradients``) and inference
(``decode_items``, a generator of each version's scores and logits) are two
uses of one micro-batch forward (``_forward``): a tree version to decode is
a ``TrainItem`` without targets, and fact features are token means computed
in each micro-batch. Both heads' bags go through one routing step
(``_routed_bags``) and its backward, and the backward reads the gate softmax
that routing kept instead of computing it again.

Everything runs in float64 with handwritten analytic gradients so the whole
parameter set can be checked against centered finite differences. Routing
gradients flow through the selected experts and the selected softmax
probabilities only; unselected paths receive exactly zero.

Token ids are crc32 hash buckets; bucket 0 is reserved as the end-of-answer
marker for QA targets and greedy decoding.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .dataset import GATE_A, GATE_B, GateId, MoeConfig
from .errors import LengthMismatch, NoFacts, NonFiniteLoss, SchemaError, SequenceTooLong
from .facts import tokenize

EOS_ID = 0


def _bucket(token_hash, vocab_size: int):
    """Stable hash into buckets 1..vocab_size-1 (0 is the end marker); takes
    one crc32 or an array of them."""
    return 1 + token_hash % (vocab_size - 1)


def _token_hashes(text: str) -> np.ndarray:
    return np.array(
        [zlib.crc32(t.encode("utf-8")) for t in tokenize(text)], dtype=np.int64
    )


def token_bucket(token: str, vocab_size: int) -> int:
    """Stable hash into buckets 1..vocab_size-1 (0 is the end marker)."""
    return _bucket(zlib.crc32(token.encode("utf-8")), vocab_size)


def token_ids(text: str, vocab_size: int) -> list[int]:
    return _bucket(_token_hashes(text), vocab_size).tolist()


def build_lexicon(texts: Iterable[str], vocab_size: int) -> dict[int, str]:
    """First-seen bucket -> word map used to turn decoded ids back into words."""
    lexicon: dict[int, str] = {}
    for text in texts:
        for token in tokenize(text):
            lexicon.setdefault(token_bucket(token, vocab_size), token)
    return lexicon


def answer_token_targets(answer: str, vocab_size: int) -> tuple[int, ...]:
    return tuple(token_ids(answer, vocab_size)) + (EOS_ID,)


def decode_answer(ids: Sequence[int], lexicon: dict[int, str]) -> str:
    words = []
    for i in ids:
        if i == EOS_ID:
            break
        word = lexicon.get(int(i))
        if word:
            words.append(word)
    return " ".join(words)


# --- parameters -----------------------------------------------------------------


class MoeParams:
    """All trainable tensors, float64. Mutated in place by the optimizer."""

    def __init__(self, config: MoeConfig, arrays: dict[str, np.ndarray]):
        self.config = config
        for name, arr in arrays.items():
            setattr(self, name, arr)
        self._names = tuple(sorted(arrays))
        self.opt_state: Optional[dict] = None

    @classmethod
    def init(cls, config: MoeConfig, seed: int) -> "MoeParams":
        rng = np.random.default_rng(seed)
        d, v = config.embed_dim, config.vocab_size
        h = 2 * d
        n_e = config.n_experts
        s = config.max_seq_len

        def w(*shape: int) -> np.ndarray:
            fan_in = shape[-1]
            return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape)

        arrays = {
            "embedding": rng.normal(0.0, 1.0 / math.sqrt(d), size=(v, d)),
            "enc_w": w(d, d),
            "enc_b": np.zeros(d),
            "gate_a": w(config.n_frg_experts + config.n_shared_experts, d),
            "gate_b": w(config.n_qa_experts + config.n_shared_experts, d),
            "expert_w1": w(n_e, h, d),
            "expert_b1": np.zeros((n_e, h)),
            "expert_w2": w(n_e, d, h),
            "expert_b2": np.zeros((n_e, d)),
            "frg_queries": rng.normal(0.0, 1.0 / math.sqrt(d), size=(s, d)),
            "qa_queries": rng.normal(0.0, 1.0 / math.sqrt(d), size=(s, d)),
            "frg_q1": w(d, d),
            "frg_k1": w(d, d),
            "frg_v1": w(d, d),
            "frg_q2": w(d, d),
            "frg_k2": w(d, d),
            "qa_q": w(d, d),
            "qa_k": w(d, d),
            "qa_v": w(d, d),
            "vocab_out": w(v, d),
        }
        return cls(config, arrays)

    def blocks(self) -> Iterable[tuple[str, np.ndarray]]:
        for name in self._names:
            yield name, getattr(self, name)

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.blocks()}

    def to_state_dict(self) -> dict:
        return {
            "format": "entailqa-checkpoint-v1",
            "config": asdict(self.config),
            "arrays": {
                name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                for name, arr in self.blocks()
            },
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MoeParams":
        """The parameters ``to_state_dict`` wrote. A checkpoint whose config
        keys are not ``MoeConfig``'s fields, or whose array names and shapes
        are not the ones ``init`` makes for that config, is a ``SchemaError``."""
        try:
            if state.get("format") != "entailqa-checkpoint-v1":
                raise ValueError(f"unknown checkpoint format: {state.get('format')!r}")
            if state["config"].keys() != asdict(MoeConfig()).keys():
                raise ValueError(f"config keys {sorted(state['config'])} are not MoeConfig's fields")
            config = MoeConfig(**state["config"])
            shapes = {name: list(arr.shape) for name, arr in cls.init(config, 0).blocks()}
            if {name: entry["shape"] for name, entry in state["arrays"].items()} != shapes:
                raise ValueError("array names or shapes do not fit the config")
            arrays = {
                name: np.asarray(entry["data"], dtype=float).reshape(entry["shape"])
                for name, entry in state["arrays"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"invalid checkpoint: {exc}") from exc
        return cls(config, arrays)


# --- value containers -----------------------------------------------------------


@dataclass(frozen=True)
class RoutingDecision:
    gate: GateId
    indices: np.ndarray  # (l, K) global expert ids
    values: np.ndarray  # (l, K) selected softmax probabilities
    pool_positions: np.ndarray  # (l, K) positions within the gate's pool
    probs: np.ndarray  # (pool, l) the gate softmax, read by the backward


@dataclass(frozen=True)
class TrainItem:
    """One item of the joint model: a tree text, its question and its facts,
    with either target absent. A decode of a tree version reads no target.

    The texts are tokenized once, when the item is built: ``bag_hashes`` and
    ``bag_counts`` hold the distinct crc32s of the tokens of the tree text
    then the question and how often each occurs, ``n_tokens`` their count,
    and ``fact_hashes`` the crc32s of each fact (``replace`` carries them
    over). A forward pass only maps each hash to its vocabulary bucket, as
    ``token_bucket`` does.
    """

    tree_text: str
    question: str
    fact_texts: tuple[str, ...]
    frg_targets: Optional[tuple[int, ...]] = None
    qa_targets: Optional[tuple[int, ...]] = None
    n_tokens: int = field(default=0, repr=False, compare=False)
    fact_hashes: Optional[tuple[np.ndarray, ...]] = field(
        default=None, repr=False, compare=False
    )
    bag_hashes: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    bag_counts: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.fact_hashes is None:
            facts = tuple(_token_hashes(text) for text in self.fact_texts)
            object.__setattr__(self, "fact_hashes", facts)
        if self.bag_hashes is None:
            seq = np.concatenate(
                [_token_hashes(self.tree_text), _token_hashes(self.question)]
            )
            bag, counts = np.unique(seq, return_counts=True)
            object.__setattr__(self, "n_tokens", len(seq))
            object.__setattr__(self, "bag_hashes", bag)
            object.__setattr__(self, "bag_counts", counts)

    def without_frg(self) -> "TrainItem":
        return replace(self, frg_targets=None)

    def without_qa(self) -> "TrainItem":
        return replace(self, qa_targets=None)


def _check_queries(config: MoeConfig, count: int, noun: str) -> None:
    """A head runs ``count`` of its ``max_seq_len`` learned queries."""
    if count < 1:
        raise ValueError(f"{noun} must be >= 1")
    if count > config.max_seq_len:
        raise SequenceTooLong(
            f"{count} {noun} exceed the {config.max_seq_len} learned queries"
        )


def check_train_item(
    item: TrainItem, config: MoeConfig, steps: int = 1, answer_len: int = 1
) -> None:
    """Raise the error a training step would raise on this item, or a decode
    that runs ``steps`` retrieval and ``answer_len`` answer queries for it."""
    if item.n_tokens > config.max_seq_len:
        raise SequenceTooLong(
            f"{item.n_tokens} tokens exceed max_seq_len={config.max_seq_len}"
        )
    if not item.n_tokens:
        raise LengthMismatch("the tree text and question have no tokens")
    if not item.fact_texts:
        raise NoFacts("the item has no facts to retrieve")
    _check_queries(config, steps, "steps")
    _check_queries(config, answer_len, "positions")
    for targets, classes in (
        (item.frg_targets, len(item.fact_texts)),
        (item.qa_targets, config.vocab_size),
    ):
        if targets is None:
            continue
        if not targets:
            raise LengthMismatch("empty target sequence")
        _check_queries(config, len(targets), "targets")
        if any(not 0 <= t < classes for t in targets):
            raise LengthMismatch("target index out of range")


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_rows_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    inner = (d_probs * probs).sum(axis=-1, keepdims=True)
    return probs * (d_probs - inner)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class _Ragged:
    """Rows of several items laid end to end, and their zero-padded
    (item, position) layout.

    With ``counts``, row i stands for ``counts[i]`` equal rows of its item, as
    in a bag of token ids: attention weighs it by its count.
    """

    def __init__(self, lengths: Sequence[int], counts: Optional[np.ndarray] = None):
        self.mask = np.arange(max(lengths)) < np.asarray(lengths)[:, None]
        self.index = np.nonzero(self.mask)  # (item, position) of each row, in order
        self.log_counts = None if counts is None else self.pad(np.log(counts), -np.inf)

    def pad(self, rows: np.ndarray, fill: float = 0.0) -> np.ndarray:
        out = np.full(self.mask.shape + rows.shape[1:], fill)
        out[self.index] = rows
        return out

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        return padded[self.index]

    def mask_scores(self, scores: np.ndarray) -> np.ndarray:
        """(items, queries, positions) scores with each row's log count added
        and padding set to -inf."""
        if self.log_counts is not None:
            return scores + self.log_counts[:, None, :]
        return np.where(self.mask[:, None, :], scores, -np.inf)


# --- forward operations -----------------------------------------------------------


def encode(params: MoeParams, ids) -> np.ndarray:
    """Hashed embedding + single projection + tanh, one row per token id. A
    row depends on its id alone, so callers pass each distinct id once."""
    x = params.embedding[np.asarray(ids, dtype=np.intp)]
    return np.tanh(x @ params.enc_w.T + params.enc_b)


def fact_features(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mean of each run of ``lengths`` consecutive rows: the feature of a fact
    from the encoder rows of its tokens. A fact with no token gives zeros."""
    out = np.zeros((len(lengths), rows.shape[1]))
    full = lengths > 0
    if full.any():
        starts = (np.cumsum(lengths) - lengths)[full]
        out[full] = np.add.reduceat(rows, starts, axis=0) / lengths[full, None]
    return out


def _gate_matrix(params: MoeParams, gate: GateId) -> np.ndarray:
    return params.gate_a if gate == GATE_A else params.gate_b


def _gate_probs(params: MoeParams, feats: np.ndarray, gate: GateId) -> np.ndarray:
    """(pool, rows) softmax of the gate logits, pool-major so that the
    reductions over a pool's few experts run along whole rows."""
    logits = np.ascontiguousarray((feats @ _gate_matrix(params, gate).T).T)
    e = np.exp(logits - logits.max(axis=0))
    return e / e.sum(axis=0)


def route(
    params: MoeParams, config: MoeConfig, feats: np.ndarray, gate: GateId
) -> RoutingDecision:
    """Top-K token-choice routing over the gate's expert pool.

    Values are the selected softmax probabilities, never rescaled over
    the K selected experts; ties select the lowest pool index first.
    """
    probs = _gate_probs(params, feats, gate)
    rows = np.arange(len(feats))
    pool_positions = np.empty((len(feats), config.top_k), dtype=np.intp)
    remaining = probs.copy()
    for k in range(config.top_k):
        pool_positions[:, k] = best = remaining.argmax(axis=0)  # first of ties
        remaining[best, rows] = -np.inf
    values = probs[pool_positions, rows[:, None]]
    pool = np.asarray(config.pool(gate))
    return RoutingDecision(
        gate=gate,
        indices=pool[pool_positions],
        values=values,
        pool_positions=pool_positions,
        probs=probs,
    )


def _sum_over_k(by_slot: np.ndarray, slots: np.ndarray, k: int) -> np.ndarray:
    """Per-row sums of expert-sorted slot values; ``slots[i]`` is the slot
    ``row * k + j`` that value i belongs to."""
    by_row = np.empty_like(by_slot)
    by_row[slots] = by_slot
    by_row = by_row.reshape(-1, k, by_slot.shape[1])
    total = by_row[:, 0].copy()
    for j in range(1, k):
        total += by_row[:, j]
    return total


def moe_forward(
    params: MoeParams, config: MoeConfig, feats: np.ndarray, gate: GateId
) -> tuple[np.ndarray, dict]:
    """Top-K expert mix plus the residual input, row by row, and what the
    backward needs. An output row depends on its input row alone, so callers
    pass one row per distinct token id (the rows ``encode`` returns).

    Every row is routed once, then each expert runs once over the rows that
    selected it (grouped, dropless dispatch): the (row, k) slots are sorted
    by expert, so each expert reads and writes one contiguous block; the
    per-slot outputs are put back in row order and summed over k.
    """
    decision = route(params, config, feats, gate)
    chosen = decision.indices.ravel()
    slots = np.argsort(chosen, kind="stable")
    pool = config.pool(gate)  # ascending expert ids
    bounds = np.searchsorted(chosen[slots], pool + (pool[-1] + 1,))
    x = feats[slots // config.top_k]
    h = np.empty((len(slots), params.expert_w1.shape[1]))
    mixed = np.empty_like(x)
    for expert, lo, hi in zip(pool, bounds[:-1], bounds[1:]):
        if lo < hi:
            h_e, mixed_e = h[lo:hi], mixed[lo:hi]
            np.matmul(x[lo:hi], params.expert_w1[expert].T, out=h_e)
            h_e += params.expert_b1[expert]
            np.tanh(h_e, out=h_e)
            np.matmul(h_e, params.expert_w2[expert].T, out=mixed_e)
            mixed_e += params.expert_b2[expert]
    mixed *= decision.values.ravel()[slots, None]
    cache = {"decision": decision, "slots": slots, "bounds": bounds, "h": h}
    return feats + _sum_over_k(mixed, slots, config.top_k), cache


# Learned queries and query/key/value projections of each head's attention
# over the routed sequence.
_ATTENTION = {
    "frg": ("frg_queries", "frg_q1", "frg_k1", "frg_v1"),
    "qa": ("qa_queries", "qa_q", "qa_k", "qa_v"),
}


def _attention_fwd(
    params: MoeParams, head: str, count: int, kv_in: np.ndarray, layout: _Ragged
) -> tuple[np.ndarray, dict]:
    """The head's first ``count`` learned queries attend over each item's own
    rows of ``kv_in``; (items, count, d)."""
    queries, wq, wk, wv = (getattr(params, name) for name in _ATTENTION[head])
    scale = 1.0 / math.sqrt(params.config.embed_dim)
    q = queries[:count] @ wq
    k = layout.pad(kv_in @ wk)
    v = layout.pad(kv_in @ wv)
    attn = _softmax_rows(layout.mask_scores(q @ k.transpose(0, 2, 1) * scale))
    return attn @ v, {"q": q, "k": k, "v": v, "attn": attn, "scale": scale}


def frg_forward(
    params: MoeParams,
    seq_moe: np.ndarray,
    layout: _Ragged,
    fact_feats: np.ndarray,
    fact_layout: _Ragged,
    step_count: int,
) -> tuple[np.ndarray, dict]:
    """(items, step_count, facts) score vectors over each item's own facts,
    and what the backward needs; a missing fact scores -inf. ``layout`` lays
    out the items' rows of ``seq_moe`` and ``fact_layout`` their rows of
    ``fact_feats``."""
    _check_queries(params.config, step_count, "steps")
    ctx, attn = _attention_fwd(params, "frg", step_count, seq_moe, layout)
    scale = 1.0 / math.sqrt(params.config.embed_dim)
    q2 = ctx @ params.frg_q2
    k2 = fact_layout.pad(fact_feats @ params.frg_k2)
    scores = fact_layout.mask_scores(q2 @ k2.transpose(0, 2, 1) * scale)
    return scores, {"ctx": ctx, "q2": q2, "k2": k2, "scale": scale, "attn": attn}


def qa_forward(
    params: MoeParams, seq_moe: np.ndarray, layout: _Ragged, answer_len: int
) -> tuple[np.ndarray, dict]:
    """(items, answer_len, vocab) logits, independent of fact features, and
    what the backward needs. ``layout`` lays out the items' rows of
    ``seq_moe``."""
    _check_queries(params.config, answer_len, "positions")
    ctx, attn = _attention_fwd(params, "qa", answer_len, seq_moe, layout)
    return ctx @ params.vocab_out.T, {"ctx": ctx, "attn": attn}


def _cross_entropy(scores: np.ndarray, targets: Sequence[int]) -> float:
    """Mean negative log softmax at the target columns."""
    if scores.shape[0] != len(targets):
        raise LengthMismatch(
            f"{scores.shape[0]} score rows for {len(targets)} targets"
        )
    targets = list(targets)
    if any(not 0 <= t < scores.shape[1] for t in targets):
        raise LengthMismatch("target index out of range")
    log_probs = _log_softmax(scores)
    return -float(np.mean(log_probs[np.arange(len(targets)), targets]))


def losses(
    frg_scores: np.ndarray,
    gold_fact_sequence: Sequence[int],
    qa_logits: np.ndarray,
    gold_answer_tokens: Sequence[int],
) -> tuple[float, float, float]:
    """(retrieval loss, answer loss, their sum) as mean cross-entropies."""
    l_frg = _cross_entropy(frg_scores, gold_fact_sequence)
    l_qa = _cross_entropy(qa_logits, gold_answer_tokens)
    return l_frg, l_qa, l_frg + l_qa


def _routed_bags(
    params: MoeParams,
    items: Sequence[TrainItem],
    enc: np.ndarray,
    bag_rows: np.ndarray,
    gate: GateId,
) -> dict:
    """The gate's MoE layer once over the distinct ``enc`` rows that the
    items' bags read through ``bag_rows``: the routed bag rows end to end
    (``seq_moe``), their count-weighted ``layout``, and the backward's cache."""
    gate_rows, rows = np.unique(bag_rows, return_inverse=True)
    feats = enc[gate_rows]
    moe_out, moe = moe_forward(params, params.config, feats, gate)
    counts = np.concatenate([item.bag_counts for item in items])
    layout = _Ragged([len(item.bag_hashes) for item in items], counts)
    return dict(
        gate_rows=gate_rows, rows=rows, feats=feats, moe=moe,
        layout=layout, seq_moe=moe_out[rows],
    )


def _forward(
    params: MoeParams,
    frg_items: Sequence[TrainItem],
    qa_items: Sequence[TrainItem],
    step_count: int,
    answer_len: int,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray], dict]:
    """The joint model's forward over one micro-batch: (items, step_count,
    facts) retrieval scores of ``frg_items``, (items, answer_len, vocab)
    answer logits of ``qa_items`` (None for an empty list), and what the
    backward needs. An item may be in both lists.

    The token ids are the sequence bags of the retrieval items, then those of
    the answer items, then every token of the retrieval items' facts. A
    token's encoder and MoE rows depend on its id alone, so the encoder runs
    once over the distinct ids, and each gate's MoE layer once over the
    distinct ids of its own head's bags; the heads read their bag rows, and
    the fact means their per-position rows, through inverse indexes.
    """
    config = params.config
    fact_hashes = [h for item in frg_items for h in item.fact_hashes]
    hashes = [item.bag_hashes for item in [*frg_items, *qa_items]] + fact_hashes
    ids = _bucket(
        np.concatenate(hashes) if hashes else np.zeros(0, np.int64), config.vocab_size
    )
    distinct, inverse = np.unique(ids, return_inverse=True)
    enc = encode(params, distinct)
    n_frg = sum(len(item.bag_hashes) for item in frg_items)
    n_seq = n_frg + sum(len(item.bag_hashes) for item in qa_items)
    cache: dict = {"ids": distinct, "enc": enc}
    scores = logits = None
    if frg_items:
        frg = _routed_bags(params, frg_items, enc, inverse[:n_frg], GATE_A)
        facts = inverse[n_seq:]
        fact_layout = _Ragged([len(item.fact_hashes) for item in frg_items])
        fact_lengths = np.array([len(h) for h in fact_hashes], dtype=np.intp)
        fact_feats = fact_features(enc[facts], fact_lengths)
        scores, head = frg_forward(
            params, frg["seq_moe"], frg["layout"], fact_feats, fact_layout, step_count
        )
        cache["frg"] = dict(
            frg, facts=facts, fact_layout=fact_layout, fact_lengths=fact_lengths,
            fact_feats=fact_feats, head=head,
        )
    if qa_items:
        qa = _routed_bags(params, qa_items, enc, inverse[n_frg:n_seq], GATE_B)
        logits, qa["head"] = qa_forward(params, qa["seq_moe"], qa["layout"], answer_len)
        cache["qa"] = qa
    return scores, logits, cache


# --- backward operations -----------------------------------------------------------


def _attention_bwd(
    params: MoeParams,
    head: str,
    d_out: np.ndarray,
    cache: dict,
    kv_in: np.ndarray,
    layout: _Ragged,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Accumulates the head's attention gradients; returns d_kv_in."""
    names = _ATTENTION[head]
    queries, wq, wk, wv = (getattr(params, name) for name in names)
    q, k, v = cache["q"], cache["k"], cache["v"]
    attn, scale = cache["attn"], cache["scale"]
    d_attn = d_out @ v.transpose(0, 2, 1)
    d_v = layout.unpad(attn.transpose(0, 2, 1) @ d_out)
    d_scores = _softmax_rows_backward(attn, d_attn)
    d_q = (d_scores @ k).sum(axis=0) * scale
    d_k = layout.unpad(d_scores.transpose(0, 2, 1) @ q) * scale
    grads[names[0]][: len(q)] += d_q @ wq.T
    grads[names[1]] += queries[: len(q)].T @ d_q
    grads[names[2]] += kv_in.T @ d_k
    grads[names[3]] += kv_in.T @ d_v
    return d_k @ wk.T + d_v @ wv.T


def _moe_bwd(
    params: MoeParams,
    config: MoeConfig,
    feats: np.ndarray,
    cache: dict,
    d_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Backward through expert mix + residual; returns gradient w.r.t. input.

    Expert outputs are recomputed from the cached hidden activations rather
    than kept from the forward pass.
    """
    decision: RoutingDecision = cache["decision"]
    slots, bounds, h = cache["slots"], cache["bounds"], cache["h"]
    rows = slots // config.top_k
    x = feats[rows]
    d_mix = d_out[rows]
    d_expert_out = decision.values.ravel()[slots, None] * d_mix
    d_slot_values = np.empty(len(slots))
    d_x = np.empty_like(x)
    pool = config.pool(decision.gate)
    for expert, lo, hi in zip(pool, bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        h_e, d_e = h[lo:hi], d_expert_out[lo:hi]
        out = h_e @ params.expert_w2[expert].T
        out += params.expert_b2[expert]
        out *= d_mix[lo:hi]
        d_slot_values[lo:hi] = out.sum(axis=1)
        grads["expert_w2"][expert] += d_e.T @ h_e
        grads["expert_b2"][expert] += d_e.sum(axis=0)
        d_a = d_e @ params.expert_w2[expert]
        d_a *= 1.0 - h_e * h_e
        grads["expert_w1"][expert] += d_a.T @ x[lo:hi]
        grads["expert_b1"][expert] += d_a.sum(axis=0)
        np.matmul(d_a, params.expert_w1[expert], out=d_x[lo:hi])
    d_feats = d_out + _sum_over_k(d_x, slots, config.top_k)
    d_values = np.empty_like(d_slot_values)
    d_values[slots] = d_slot_values

    # route the value gradient to the selected softmax entries
    probs = decision.probs
    selected = (decision.pool_positions, np.arange(len(feats))[:, None])
    d_probs = np.zeros_like(probs)
    d_probs[selected] = d_values.reshape(decision.values.shape)
    d_logits = (probs * (d_probs - (d_probs * probs).sum(axis=0))).T
    grads["gate_a" if decision.gate == GATE_A else "gate_b"] += d_logits.T @ feats
    d_feats += d_logits @ _gate_matrix(params, decision.gate)
    return d_feats


def _encoder_bwd(
    params: MoeParams,
    grads: dict[str, np.ndarray],
    ids: np.ndarray,
    enc_out: np.ndarray,
    d_out: np.ndarray,
) -> None:
    """Accumulates the encoder gradients of rows whose ``ids`` are distinct."""
    d_z = d_out * (1.0 - enc_out * enc_out)
    grads["enc_w"] += d_z.T @ params.embedding[ids]
    grads["enc_b"] += d_z.sum(axis=0)
    grads["embedding"][ids] += d_z @ params.enc_w


def _sum_rows_by(index: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """(count, d) sums of ``rows`` grouped by ``index``: the gradient of the
    gather ``distinct_rows[index]``."""
    d = rows.shape[1]
    cells = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(cells, weights=rows.ravel(), minlength=count * d).reshape(
        count, d
    )


def _routed_bags_bwd(
    params: MoeParams,
    head: str,
    bags: dict,
    d_ctx: np.ndarray,
    d_enc: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Backward of the head's attention over the routed bag rows, from the
    gradient of its output ``d_ctx``, then of ``_routed_bags``; adds to
    ``d_enc``. ``bags`` is what ``_routed_bags`` returned, with the head's
    forward cache added under ``"head"``."""
    attn, kv_in = bags["head"]["attn"], bags["seq_moe"]
    d_seq = _attention_bwd(params, head, d_ctx, attn, kv_in, bags["layout"], grads)
    rows, feats = bags["gate_rows"], bags["feats"]
    d_moe = _sum_rows_by(bags["rows"], d_seq, len(rows))
    d_enc[rows] += _moe_bwd(params, params.config, feats, bags["moe"], d_moe, grads)


def _fact_features_bwd(d_means: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    full = lengths > 0
    return np.repeat(d_means[full] / lengths[full, None], lengths[full], axis=0)


# --- batched training step ----------------------------------------------------------

# Items per micro-batch. A micro-batch runs forward then backward and drops its
# activations before the next one starts, which bounds the activations held at
# once. Its encoder and MoE layer run once per distinct token id, so a larger
# micro-batch shares those rows across more items. The `train` benchmark's
# 44-item step fits in one: on 2 vCPUs its median step took 8.2-8.5 ms at 8
# items, 7.2 at 16 and 22, and 5.6-6.9 at 44 and 64, with a max RSS of
# 45.6-46.8 MB at every size.
MICRO_BATCH = 64


def _pad_targets(
    targets: Sequence[Sequence[int]], weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """(items, longest) zero-padded targets and the loss weight of each:
    ``weight`` over the item's target count, 0 on padding."""
    longest = max((len(t) for t in targets), default=0)
    padded = np.zeros((len(targets), longest), dtype=np.intp)
    step_weights = np.zeros((len(targets), longest))
    for i, t in enumerate(targets):
        padded[i, : len(t)] = t
        step_weights[i, : len(t)] = weight / len(t)
    return padded, step_weights


def _weighted_cross_entropy(
    scores: np.ndarray, targets: np.ndarray, step_weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Weighted sum of -log softmax(scores) at the targets, and its gradient."""
    log_probs = _log_softmax(scores)
    picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
    d_scores = np.exp(log_probs)
    items, steps = np.indices(targets.shape)
    d_scores[items, steps, targets] -= 1.0
    d_scores *= step_weights[..., None]
    return -float((picked * step_weights).sum()), d_scores


def _micro_forward(
    params: MoeParams,
    config: MoeConfig,
    items: Sequence[TrainItem],
    frg_weight: float,
    qa_weight: float,
) -> tuple[float, dict]:
    """Weighted joint loss of one micro-batch and what its backward needs;
    an item carrying both targets goes to both heads."""
    for item in items:
        check_train_item(item, config)
    frg = [item for item in items if item.frg_targets is not None]
    qa = [item for item in items if item.qa_targets is not None]
    frg_targets = _pad_targets([item.frg_targets for item in frg], frg_weight)
    qa_targets = _pad_targets([item.qa_targets for item in qa], qa_weight)
    scores, logits, cache = _forward(
        params, frg, qa, frg_targets[0].shape[1], qa_targets[0].shape[1]
    )
    loss = 0.0
    for head, out, (targets, step_weights) in (
        ("frg", scores, frg_targets),
        ("qa", logits, qa_targets),
    ):
        if out is not None:
            part, cache[head]["d_out"] = _weighted_cross_entropy(
                out, targets, step_weights
            )
            loss += part
    return loss, cache


def _micro_backward(
    params: MoeParams, cache: dict, grads: dict[str, np.ndarray]
) -> None:
    """Adds one micro-batch's gradients to ``grads``."""
    enc = cache["enc"]
    d_enc = np.zeros_like(enc)

    frg = cache.get("frg")
    if frg is not None:
        head, d_scores = frg["head"], frg["d_out"]
        d_q2 = d_scores @ head["k2"] * head["scale"]
        d_k2 = frg["fact_layout"].unpad(
            d_scores.transpose(0, 2, 1) @ head["q2"] * head["scale"]
        )
        d = params.config.embed_dim
        grads["frg_q2"] += head["ctx"].reshape(-1, d).T @ d_q2.reshape(-1, d)
        grads["frg_k2"] += frg["fact_feats"].T @ d_k2
        _routed_bags_bwd(params, "frg", frg, d_q2 @ params.frg_q2.T, d_enc, grads)
        d_facts = _fact_features_bwd(d_k2 @ params.frg_k2.T, frg["fact_lengths"])
        d_enc += _sum_rows_by(frg["facts"], d_facts, len(enc))

    qa = cache.get("qa")
    if qa is not None:
        head, d_logits = qa["head"], qa["d_out"]
        grads["vocab_out"] += (
            d_logits.reshape(-1, d_logits.shape[2]).T
            @ head["ctx"].reshape(-1, head["ctx"].shape[2])
        )
        _routed_bags_bwd(params, "qa", qa, d_logits @ params.vocab_out, d_enc, grads)

    _encoder_bwd(params, grads, cache["ids"], enc, d_enc)


def _micro_batches(
    batch: Sequence[TrainItem],
) -> tuple[list[Sequence[TrainItem]], float, float]:
    """The batch cut into micro-batches, and the loss weights that average the
    retrieval and answer terms each over the items carrying that target."""
    n_frg = sum(item.frg_targets is not None for item in batch)
    n_qa = sum(item.qa_targets is not None for item in batch)
    chunks = [batch[i : i + MICRO_BATCH] for i in range(0, len(batch), MICRO_BATCH)]
    return chunks, 1.0 / n_frg if n_frg else 0.0, 1.0 / n_qa if n_qa else 0.0


def batch_loss(
    params: MoeParams, config: MoeConfig, batch: Sequence[TrainItem]
) -> float:
    """The joint batch loss by the forward pass of ``batch_gradients``
    (finite-difference oracle hook).

    The retrieval and answer terms are each averaged over the items that carry
    that target, then summed.
    """
    chunks, frg_weight, qa_weight = _micro_batches(batch)
    total = 0.0
    for chunk in chunks:
        total += _micro_forward(params, config, chunk, frg_weight, qa_weight)[0]
    return total


def batch_gradients(
    params: MoeParams, config: MoeConfig, batch: Sequence[TrainItem]
) -> tuple[float, dict[str, np.ndarray]]:
    """Analytic gradients of the joint batch loss for every parameter block.

    Each micro-batch of ``MICRO_BATCH`` items runs forward then backward, in
    order, and adds its loss and gradients to the batch's.
    """
    chunks, frg_weight, qa_weight = _micro_batches(batch)
    total, grads = 0.0, params.zero_grads()
    for chunk in chunks:
        loss, cache = _micro_forward(params, config, chunk, frg_weight, qa_weight)
        total += loss
        _micro_backward(params, cache, grads)
    return total, grads


def backward_and_step(
    params: MoeParams,
    config: MoeConfig,
    batch: Sequence[TrainItem],
    learning_rate: float,
    weight_decay: float = 0.01,
) -> tuple[MoeParams, float]:
    """One AdamW step on the joint loss; params are updated in place.

    Overflow is not warned about: a non-finite loss raises ``NonFiniteLoss``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = batch_gradients(params, config, batch)
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"loss is {loss}")
        _adamw_step(params, grads, learning_rate, weight_decay)
    return params, loss


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def _adamw_step(
    params: MoeParams,
    grads: dict[str, np.ndarray],
    lr: float,
    weight_decay: float,
) -> None:
    if params.opt_state is None:
        params.opt_state = {
            "step": 0,
            "m": {name: np.zeros_like(arr) for name, arr in params.blocks()},
            "v": {name: np.zeros_like(arr) for name, arr in params.blocks()},
        }
    state = params.opt_state
    state["step"] += 1
    t = state["step"]
    for name, arr in params.blocks():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= _ADAM_BETA1
        m += (1 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1 - _ADAM_BETA2) * g * g
        m_hat = m / (1 - _ADAM_BETA1**t)
        v_hat = v / (1 - _ADAM_BETA2**t)
        arr -= lr * (m_hat / (np.sqrt(v_hat) + _ADAM_EPS) + weight_decay * arr)


# --- batched inference ------------------------------------------------------------

# QA logit floats per inference micro-batch. The logits, items x answer
# positions x vocab_size, are most of what a micro-batch holds, so this sets
# how many items it takes: 16 at the `train` benchmark's vocab_size of 512,
# and 4 at the default 2,048, with 8 answer positions. On the `http_mixed`
# benchmark's inputs (vocab_size 2,048, mock backend) the run's peak RSS was
# 42.9, 43.2, 43.6, 44.9 and 47.1 MB at 1, 4, 8, 16 and 32 items per
# micro-batch; on `train`'s it stayed at 47.8-47.9 MB up to 16 and reached
# 48.3 MB at 32.
DECODE_LOGITS = 1 << 16


def decode_items(
    params: MoeParams, versions: Sequence[tuple[TrainItem, int, int]]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yields, for each version ``(item, steps, answer_len)`` in order, the
    item's (steps, facts) scores and (answer_len, vocab) logits; forward
    only.

    The versions run in micro-batches whose logits fit in ``DECODE_LOGITS``
    floats (one version at least), each through the training step's forward
    with every item in both heads, at the micro-batch's largest query counts.
    Query rows are independent, so each item's slice, cut to its own query
    counts and facts, is what it would get alone. The slices are views: a
    caller that drops each one before asking for the next lets each
    micro-batch be freed before the next one is made. A forward that
    overflows gives non-finite values without a warning; the caller checks
    them.
    """
    longest = max((answer_len for _, _, answer_len in versions), default=1)
    size = max(1, DECODE_LOGITS // (longest * params.config.vocab_size))
    for start in range(0, len(versions), size):
        chunk = versions[start : start + size]
        items = [item for item, _, _ in chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            # [:2] drops the backward cache at once
            scores, logits = _forward(
                params,
                items,
                items,
                max(steps for _, steps, _ in chunk),
                max(answer_len for _, _, answer_len in chunk),
            )[:2]
        for i, (item, steps, answer_len) in enumerate(chunk):
            yield scores[i, :steps, : len(item.fact_texts)], logits[i, :answer_len]
        del scores, logits  # freed before the next micro-batch's are made


def greedy_answer_ids(qa_logits: np.ndarray) -> list[int]:
    return [int(i) for i in np.argmax(qa_logits, axis=1)]
