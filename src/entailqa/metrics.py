"""Answer and retrieval metrics: exact match, word-level F1, set F1.

Normalization follows the usual reading-comprehension convention: lowercase,
strip punctuation, collapse whitespace, drop articles.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union

_ARTICLES = {"a", "an", "the"}
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

GoldAnswers = Union[str, Iterable[str]]


@dataclass(frozen=True)
class RetrievalScore:
    precision: float
    recall: float
    f1: float


def normalize_answer(text: str) -> str:
    tokens = text.lower().translate(_PUNCT_TABLE).split()
    return " ".join(t for t in tokens if t not in _ARTICLES)


def _golds(gold: GoldAnswers) -> list[str]:
    if isinstance(gold, str):
        return [gold]
    return list(gold)


def em(pred: str, gold: GoldAnswers) -> int:
    norm = normalize_answer(pred)
    return int(any(norm == normalize_answer(g) for g in _golds(gold)))


def _f1_single(pred: str, gold: str) -> float:
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    common = Counter(pred_tokens) & Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def word_f1(pred: str, gold: GoldAnswers) -> float:
    return max(_f1_single(pred, g) for g in _golds(gold))


def retrieval_f1(pred_ids: Iterable, gold_ids: Iterable) -> RetrievalScore:
    pred_set, gold_set = set(pred_ids), set(gold_ids)
    hits = len(pred_set & gold_set)
    precision = hits / len(pred_set) if pred_set else 0.0
    recall = hits / len(gold_set) if gold_set else 0.0
    if precision + recall == 0:
        return RetrievalScore(precision, recall, 0.0)
    return RetrievalScore(
        precision, recall, 2 * precision * recall / (precision + recall)
    )
