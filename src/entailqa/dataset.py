"""Dataset ingestion, run configuration, and canonical JSON persistence.

Dataset files look like::

    {"examples": [{"id": ..., "question": ..., "answer": str | [str],
                   "evidence": [{"id", "modality", "content" | {"header","rows"},
                                 "caption"?}],
                   "gold_support_ids"?: [...], "gold_tree"?: "fact1 -> answer"}]}

Schema violations raise ``SchemaError`` carrying a JSON-pointer location.
All persisted JSON uses sorted keys and a trailing newline so that equal
content is byte-equal.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Literal, Optional, Union

from .errors import SchemaError, TreeError
from .facts import MODALITIES, TABLE, Evidence, Table
from .tree import parse_tree

_EVIDENCE_ID_RE = re.compile(r"[^\s\[\]]+")


@dataclass(frozen=True)
class QAExample:
    id: str
    question: str
    evidence: tuple[Evidence, ...]
    gold_answer: Union[str, tuple[str, ...]]
    gold_support_ids: Optional[tuple[str, ...]] = None
    gold_tree: Optional[str] = None

    def gold_answers(self) -> tuple[str, ...]:
        if isinstance(self.gold_answer, str):
            return (self.gold_answer,)
        return tuple(self.gold_answer)


@dataclass(frozen=True)
class TrainingConfig:
    steps: int = 200
    learning_rate: float = 1e-4
    batch_size_retrieval: int = 32
    batch_size_qa: int = 12
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.steps < 0 or self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("steps, learning_rate and weight_decay must be non-negative")
        if self.batch_size_retrieval < 1 or self.batch_size_qa < 1:
            raise ValueError("batch sizes must be >= 1")


GateId = Literal["A", "B"]
GATE_A: GateId = "A"
GATE_B: GateId = "B"


@dataclass(frozen=True)
class MoeConfig:
    embed_dim: int = 16
    vocab_size: int = 2048
    n_frg_experts: int = 2
    n_qa_experts: int = 2
    n_shared_experts: int = 2
    top_k: int = 2
    max_seq_len: int = 512

    def __post_init__(self):
        counts = (
            self.embed_dim,
            self.n_frg_experts,
            self.n_qa_experts,
            self.n_shared_experts,
            self.top_k,
            self.max_seq_len,
        )
        if any(c < 1 for c in counts):
            raise ValueError("all counts must be >= 1")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.top_k > self.n_frg_experts + self.n_shared_experts:
            raise ValueError("top_k exceeds the FRG gate pool")
        if self.top_k > self.n_qa_experts + self.n_shared_experts:
            raise ValueError("top_k exceeds the QA gate pool")

    @property
    def n_experts(self) -> int:
        return self.n_frg_experts + self.n_qa_experts + self.n_shared_experts

    @property
    def frg_expert_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_frg_experts))

    @property
    def qa_expert_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_frg_experts, self.n_frg_experts + self.n_qa_experts))

    @property
    def shared_expert_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_frg_experts + self.n_qa_experts, self.n_experts))

    def pool(self, gate: GateId) -> tuple[int, ...]:
        if gate == GATE_A:
            return self.frg_expert_ids + self.shared_expert_ids
        if gate == GATE_B:
            return self.qa_expert_ids + self.shared_expert_ids
        raise ValueError(f"unknown gate: {gate!r}")


_UNHASHED = ("workers", "http_timeout", "http_max_retries")
# Seconds. A socket keeps its timeout as a signed 64-bit count of nanoseconds
# (at most about 9.2e9 s); a larger one is an OverflowError on the first request.
_MAX_HTTP_TIMEOUT = 1e9


@dataclass(frozen=True)
class RunConfig:
    backend: str = "mock"
    seed: int = 0
    iteration_budget: int = 2
    validation_fraction: float = 0.25
    retrieval_top_n: int = 4
    decode_answer_len: int = 8
    workers: int = 1
    http_model: str = "gpt-3.5-turbo"
    http_timeout: float = 60.0
    http_max_retries: int = 2
    moe: MoeConfig = field(default_factory=MoeConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def __post_init__(self):
        if self.backend not in ("mock", "http"):
            raise ValueError(f"unknown backend: {self.backend!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.iteration_budget < 1:
            raise ValueError("iteration budget must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.retrieval_top_n < 1:
            raise ValueError("retrieval_top_n must be >= 1")
        if not 1 <= self.decode_answer_len <= self.moe.max_seq_len:
            raise ValueError("decode_answer_len must be in [1, moe.max_seq_len]")
        if not 0 < self.validation_fraction <= 1:
            raise ValueError("validation_fraction must be in (0, 1]")
        if not 0 < self.http_timeout <= _MAX_HTTP_TIMEOUT:
            raise ValueError(f"http_timeout must be in (0, {_MAX_HTTP_TIMEOUT:g}]")
        if self.http_max_retries < 0:
            raise ValueError("http_max_retries must be >= 0")

    def to_json_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of the fields that can change a result: all but the thread
        count and the HTTP client's timeout and retries."""
        data = {k: v for k, v in self.to_json_dict().items() if k not in _UNHASHED}
        return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:12]


def _coerced(defaults, data: dict) -> dict:
    """The fields of the dataclass ``defaults`` that ``data`` sets, each
    converted to the type of its default. A section, a field whose default is
    a dataclass, is built from its JSON object by the same rule. No field
    takes true or false, an int takes no number with a fractional part, a
    float must be finite and a str takes only a string."""
    out = {}
    for f in fields(defaults):
        if f.name in data:
            value, default = data[f.name], getattr(defaults, f.name)
            kind = type(default)
            if isinstance(value, bool):
                raise ValueError(f"{f.name} must not be true or false, got {value!r}")
            if is_dataclass(default):
                out[f.name] = kind(**{**value, **_coerced(default, value)})
                continue
            if kind is int and isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if kind is str and not isinstance(value, str):
                raise ValueError(f"{f.name} must be a string, got {value!r}")
            out[f.name] = kind(value)
            if kind is float and not math.isfinite(out[f.name]):
                raise ValueError(f"{f.name} is not a finite number, got {value!r}")
    return out


def run_config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from loose JSON.

    Every value, top-level or in a section, is coerced to the type of its
    default. Unknown top-level keys are ignored; unknown nested keys are
    errors.
    """
    if not isinstance(data, dict):
        raise SchemaError("run config must be a JSON object")
    try:
        return RunConfig(**_coerced(RunConfig(), data))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid run config: {exc}") from exc


def load_run_config(path: Union[str, Path]) -> RunConfig:
    return run_config_from_dict(read_json(path))


# --- dataset loading -----------------------------------------------------------------


def _expect(condition: bool, message: str, pointer: str) -> None:
    if not condition:
        raise SchemaError(message, pointer)


def _cells(values: list, pointer: str) -> tuple[str, ...]:
    """A header or row as strings; an entry that is not a string or a number
    (``null``, a boolean, an object or an array) is a ``SchemaError``."""
    for c, value in enumerate(values):
        _expect(
            isinstance(value, (str, int, float)) and not isinstance(value, bool),
            "table cell must be a string or a number",
            f"{pointer}/{c}",
        )
    return tuple(str(value) for value in values)


def _parse_table(data: dict, pointer: str) -> Table:
    _expect(isinstance(data, dict), "table content must be an object", pointer)
    header = data.get("header")
    rows = data.get("rows")
    _expect(isinstance(header, list) and header, "table needs a non-empty header", pointer)
    _expect(isinstance(rows, list), "table needs a rows list", pointer)
    coerced = []
    for i, row in enumerate(rows):
        _expect(isinstance(row, list), "row must be a list", f"{pointer}/rows/{i}")
        _expect(
            len(row) == len(header),
            f"row has {len(row)} cells for {len(header)} columns",
            f"{pointer}/rows/{i}",
        )
        coerced.append(_cells(row, f"{pointer}/rows/{i}"))
    return Table(header=_cells(header, f"{pointer}/header"), rows=tuple(coerced))


def _parse_evidence(data: dict, pointer: str) -> Evidence:
    _expect(isinstance(data, dict), "evidence must be an object", pointer)
    ev_id = data.get("id")
    _expect(
        isinstance(ev_id, str) and bool(_EVIDENCE_ID_RE.fullmatch(ev_id)),
        "evidence id must be a non-empty string without spaces or brackets",
        f"{pointer}/id",
    )
    modality = data.get("modality")
    _expect(modality in MODALITIES, f"unknown modality {modality!r}", f"{pointer}/modality")
    caption = data.get("caption")
    if caption is not None:
        _expect(isinstance(caption, str), "caption must be a string", f"{pointer}/caption")
    content = data.get("content", "")
    if modality == TABLE:
        content = _parse_table(content, f"{pointer}/content")
    else:
        _expect(
            isinstance(content, str), "content must be a string", f"{pointer}/content"
        )
        if modality == "image":
            _expect(
                bool(caption and caption.strip()),
                "image evidence needs a caption",
                f"{pointer}/caption",
            )
        else:
            _expect(
                bool(content.strip()),
                "text evidence needs non-empty content",
                f"{pointer}/content",
            )
    return Evidence(id=ev_id, modality=modality, content=content, caption=caption)


def parse_example(data: dict, pointer: str) -> QAExample:
    _expect(isinstance(data, dict), "example must be an object", pointer)
    ex_id = data.get("id")
    _expect(
        isinstance(ex_id, str) and bool(ex_id.strip()),
        "example id must be a non-empty string",
        f"{pointer}/id",
    )
    # every dataset command writes its output for the example to <id>.<suffix>.json
    _expect(
        ex_id not in (".", "..") and not any(c in ex_id for c in "/\\\0"),
        "example id must be a file name: no '/', '\\' or NUL, and not '.' or '..'",
        f"{pointer}/id",
    )
    question = data.get("question")
    _expect(
        isinstance(question, str) and bool(question.strip()),
        "question must be a non-empty string",
        f"{pointer}/question",
    )
    answer = data.get("answer")
    if isinstance(answer, list):
        _expect(
            answer and all(isinstance(a, str) for a in answer),
            "answer list must hold strings",
            f"{pointer}/answer",
        )
        gold_answer: Union[str, tuple[str, ...]] = tuple(answer)
    else:
        _expect(isinstance(answer, str), "answer must be a string or list", f"{pointer}/answer")
        gold_answer = answer

    raw_evidence = data.get("evidence", [])
    _expect(isinstance(raw_evidence, list), "evidence must be a list", f"{pointer}/evidence")
    evidence = []
    seen_ids = set()
    for i, item in enumerate(raw_evidence):
        ev = _parse_evidence(item, f"{pointer}/evidence/{i}")
        _expect(
            ev.id not in seen_ids,
            f"duplicate evidence id {ev.id!r}",
            f"{pointer}/evidence/{i}/id",
        )
        seen_ids.add(ev.id)
        evidence.append(ev)

    support = data.get("gold_support_ids")
    if support is not None:
        _expect(
            isinstance(support, list) and all(isinstance(s, str) for s in support),
            "gold_support_ids must be a list of strings",
            f"{pointer}/gold_support_ids",
        )
        for i, sid in enumerate(support):
            _expect(
                sid in seen_ids,
                f"gold support id {sid!r} not in evidence",
                f"{pointer}/gold_support_ids/{i}",
            )
        support = tuple(support)

    gold_tree = data.get("gold_tree")
    if gold_tree is not None:
        _expect(
            isinstance(gold_tree, str), "gold_tree must be a string", f"{pointer}/gold_tree"
        )
        try:
            parse_tree(gold_tree)
        except TreeError as exc:
            raise SchemaError(f"gold_tree does not parse: {exc}", f"{pointer}/gold_tree")

    return QAExample(
        id=ex_id,
        question=question,
        evidence=tuple(evidence),
        gold_answer=gold_answer,
        gold_support_ids=support,
        gold_tree=gold_tree,
    )


def dataset_from_dict(data: dict) -> list[QAExample]:
    _expect(isinstance(data, dict), "dataset must be an object", "")
    raw = data.get("examples")
    _expect(isinstance(raw, list), "dataset needs an examples list", "/examples")
    examples = []
    seen = set()
    for i, item in enumerate(raw):
        ex = parse_example(item, f"/examples/{i}")
        _expect(ex.id not in seen, f"duplicate example id {ex.id!r}", f"/examples/{i}/id")
        seen.add(ex.id)
        examples.append(ex)
    return examples


def load_dataset(path: Union[str, Path]) -> list[QAExample]:
    return dataset_from_dict(read_json(path))


def load_predictions(path: Union[str, Path]) -> list[dict]:
    """The entries of a predictions file, ``{"predictions": [...]}`` or a bare
    list, each ``{"id", "answer", "retrieved_evidence_ids"?, "tree"?}``."""
    data = read_json(path)
    predictions = data.get("predictions") if isinstance(data, dict) else data
    _expect(isinstance(predictions, list), "predictions file needs a predictions list", "/predictions")
    seen = set()
    for i, pred in enumerate(predictions):
        pointer = f"/predictions/{i}"
        _expect(isinstance(pred, dict), "prediction must be an object", pointer)
        for key in ("id", "answer", "tree"):
            _expect(isinstance(pred.get(key, ""), str), f"{key} must be a string", f"{pointer}/{key}")
        if "id" in pred:
            _expect(pred["id"] not in seen, f"duplicate prediction id {pred['id']!r}", f"{pointer}/id")
            seen.add(pred["id"])
        ids = pred.get("retrieved_evidence_ids", [])
        _expect(
            isinstance(ids, list) and all(isinstance(e, str) for e in ids),
            "retrieved_evidence_ids must be a list of strings",
            f"{pointer}/retrieved_evidence_ids",
        )
    return predictions


# --- canonical persistence -------------------------------------------------------------


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False)


def canonical_json(obj) -> str:
    return _ENCODER.encode(obj) + "\n"


def write_json(path: Union[str, Path], obj) -> None:
    """Write ``canonical_json(obj)`` to ``path``, streamed chunk by chunk, so
    no copy of the whole text is ever held in memory.

    A payload that fails to encode (a value that is not a plain JSON type, or
    a circular reference) raises after part of the file is written and leaves
    that partial file. No command's payload can fail this way: every one is
    made of dicts, lists, strings, numbers and ``None``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_ENCODER.iterencode(obj))
        fh.write("\n")


def _finite(text: str) -> float:
    """A JSON number as a float; ``NaN``, ``Infinity`` and numbers too large
    for a float are not numbers JSON allows."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(path: Union[str, Path]):
    """The JSON value in the file at ``path``; a file that is not UTF-8 JSON,
    holds a number that is not finite or nests too deep to parse, is a
    ``SchemaError``."""
    try:
        return json.loads(
            Path(path).read_text(encoding="utf-8"),
            parse_float=_finite,
            parse_constant=_finite,
        )
    except (ValueError, RecursionError) as exc:  # a decode error, or nesting too deep
        raise SchemaError(f"not valid JSON: {exc}") from exc
