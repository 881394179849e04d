"""Fact base: facts with provenance, table linearization, and the lexical
stand-in evidence retriever.

The retriever ranks candidates by overlap between normalized question tokens
and normalized evidence text; it is a deterministic, model-free substitute for
a trained dense retriever and makes no recall claims.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

from .errors import EmptyTable, EmptyText, UnknownFactId
from .tree import LEAF, NodeId, leaf_id

TEXT = "text"
IMAGE = "image"
TABLE = "table"
MODALITIES = (TEXT, IMAGE, TABLE)

_ORDINALS = (
    "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
    "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
    "seventeen", "eighteen", "nineteen", "twenty",
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """The one word split of the package: lowercase alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def overlap_tokens(text: str) -> list[str]:
    """Retriever normalization: the word split without 1-char tokens."""
    return [t for t in tokenize(text) if len(t) > 1]


@dataclass(frozen=True)
class Table:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != len(self.header):
                raise ValueError(
                    f"row {i} has {len(row)} cells for {len(self.header)} columns"
                )


@dataclass(frozen=True)
class Evidence:
    id: str
    modality: str
    content: object = ""  # str for text/image, Table for tables
    caption: Optional[str] = None

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality: {self.modality!r}")
        if (self.modality == TABLE) != isinstance(self.content, Table):
            raise ValueError("table modality iff content is a Table")

    def answer_texts(self) -> list[str]:
        """What the evidence shows: its caption, linearized rows or passage."""
        if self.modality == TABLE:
            return linearize_table(self.content)
        return [(self.caption or "") if self.modality == IMAGE else str(self.content)]

    def retrieval_text(self) -> str:
        return " ".join(self.answer_texts())


@dataclass(frozen=True)
class Fact:
    """One atomic statement distilled from a piece of evidence."""

    id: NodeId
    text: str
    modality: str
    source_evidence_id: str
    origin: Optional[tuple[str, str]] = None  # (sub_question, answer)


@dataclass(frozen=True)
class FactBase:
    question_id: str
    facts: tuple[Fact, ...] = ()

    def __post_init__(self):
        for i, fact in enumerate(self.facts):
            if fact.id != leaf_id(i + 1):
                raise ValueError(
                    f"fact ids must be contiguous; slot {i} holds {fact.id}"
                )

    def __len__(self) -> int:
        return len(self.facts)

    def texts(self) -> list[str]:
        return [f.text for f in self.facts]

    def to_json_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "facts": [
                {
                    "id": f.id.render(),
                    "text": f.text,
                    "modality": f.modality,
                    "source_evidence_id": f.source_evidence_id,
                    "origin": (
                        {"sub_question": f.origin[0], "answer": f.origin[1]}
                        if f.origin
                        else None
                    ),
                }
                for f in self.facts
            ],
        }


def add_fact(
    base: FactBase,
    text: str,
    modality: str,
    source_evidence_id: str,
    origin: Optional[tuple[str, str]] = None,
) -> FactBase:
    """Append a fact with the next contiguous id; returns a new FactBase."""
    if not text or not text.strip():
        raise EmptyText("fact text is empty")
    fact = Fact(
        id=leaf_id(len(base.facts) + 1),
        text=text.strip(),
        modality=modality,
        source_evidence_id=source_evidence_id,
        origin=origin,
    )
    return FactBase(base.question_id, base.facts + (fact,))


def lookup_text(base: FactBase, node: NodeId) -> str:
    if node.kind != LEAF or not (1 <= node.index <= len(base.facts)):
        raise UnknownFactId(f"{node} not in fact base of size {len(base.facts)}")
    return base.facts[node.index - 1].text


def linearize_table(table: Table) -> list[str]:
    """One sentence per row: "row one's Season is 2010, Winner is Super Saver.".
    A name or cell that is empty, that one-lining would change, that holds ", "
    or '"', or that holds the word "is" at an end or between spaces is a JSON
    string: 'Winner is "Paris, France"'."""
    if not table.rows or not table.header:
        raise EmptyTable("table has no rows or no columns")
    sentences = []
    for k, row in enumerate(table.rows, start=1):
        ordinal = _ORDINALS[k - 1] if k <= len(_ORDINALS) else str(k)
        cells = ", ".join(
            f"{_quoted(col)} is {_quoted(cell)}" for col, cell in zip(table.header, row)
        )
        sentences.append(f"row {ordinal}'s {cells}.")
    return sentences


def _quoted(text: str) -> str:
    one_line = text == " ".join(text.split())
    if not (text and one_line) or '"' in text or ", " in text or " is " in f" {text} ":
        return json.dumps(text, ensure_ascii=False)
    return text


def retrieve_evidence(
    question: str, candidates: list[Evidence], top_n: int
) -> list[Evidence]:
    """Rank candidates by shared normalized tokens with the question.

    Ties keep the original candidate order; fewer than top_n candidates
    returns them all.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    q_tokens = set(overlap_tokens(question))
    scored = []
    for i, ev in enumerate(candidates):
        score = len(q_tokens & set(overlap_tokens(ev.retrieval_text())))
        scored.append((-score, i, ev))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [ev for _, _, ev in scored[:top_n]]
