"""Spans around the public functions of entailqa's modules, and the per-module
metrics computed from them.

Each traced function is replaced by a wrapper under every name that binds it
in a loaded ``entailqa`` module, so a call is recorded whichever module makes
it (``cli.write_json`` and ``dataset.write_json`` are the same function under
two names). A span holds its name, start, end, parent span, example id and
thread. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from entailqa.dataset import QAExample

# The package rebinds ``entailqa.refine`` to the function of that name, so the
# modules are taken from the import system rather than as package attributes.
cli, dataset, facts, llm, moe, pipeline, refine, tree = (
    importlib.import_module(f"entailqa.{name}")
    for name in ("cli", "dataset", "facts", "llm", "moe", "pipeline", "refine", "tree")
)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: Optional[int]
    example: Optional[str]
    thread: int
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    info: object = None  # what the target's note hook recorded about the call


def _example_of(args: tuple) -> Optional[str]:
    for arg in args:
        if isinstance(arg, QAExample):
            return arg.id
        question_id = getattr(arg, "question_id", None)  # PipelineState, FactBase
        if isinstance(question_id, str):
            return question_id
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(
        self,
        name: str,
        fn: Callable,
        note: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``note(args)`` runs before the call and ``after(info, args)`` after a
        successful one; their result is kept as the span's ``info``."""
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            example = parent.example if parent and parent.example else _example_of(args)
            span = Span(
                next(ids),
                name,
                parent.id if parent else None,
                example,
                threading.get_ident(),
            )
            if note is not None:
                span.info = note(args)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)
            if after is not None:
                span.info = after(span.info, args)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function under each name that binds it."""
        loaded = [m for n, m in sys.modules.items() if n.split(".")[0] == "entailqa"]
        for owner, attr, name, note, after in _TARGETS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, note, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "example": s.example,
                    "thread": s.thread,
                    "error": s.error,
                }
                fh.write(json.dumps(record) + "\n")


def _request(args) -> tuple[str, str]:
    request = args[1]  # complete(self, request)
    return request.tag, request.prompt


def _decoded_before(args) -> int:
    return len(args[0].predicted_answers)  # predict_pending(state, ...)


def _decoded_by_call(before: int, args) -> int:
    return len(args[0].predicted_answers) - before


def _gate_rows(args) -> tuple[str, int]:
    seq = args[2]  # moe_forward(params, config, seq, gate)
    return args[3], np.shape(getattr(seq, "features", seq))[0]


# (owner, attribute, span name, note, after)
_TARGETS = [
    (dataset, "load_dataset", "dataset.load_dataset", None, None),
    (dataset, "write_json", "dataset.write_json", lambda a: str(a[0]), None),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None, None),
    (pipeline, "stage1_states", "pipeline.stage1_states", None, None),
    (pipeline, "run_stage1", "pipeline.run_stage1", None, None),
    (pipeline, "build_train_items", "pipeline.build_train_items", None, None),
    (pipeline, "train", "pipeline.train", None, None),
    (pipeline, "predict_pending", "pipeline.predict_pending", _decoded_before, _decoded_by_call),
    (pipeline, "run_feedback_iteration", "pipeline.run_feedback_iteration", None, None),
    (llm.MockBackend, "complete", "llm.complete", _request, None),
    (llm.HttpBackend, "complete", "llm.complete", _request, None),
    (facts, "retrieve_evidence", "facts.retrieve_evidence", None, None),
    (refine, "refine", "refine.refine", None, None),
    (refine, "tree_to_text", "refine.tree_to_text", None, None),
    (tree, "parse_tree", "tree.parse_tree", None, None),
    (tree, "serialize_tree", "tree.serialize_tree", None, None),
    (moe, "token_ids", "moe.token_ids", lambda a: a[0], None),
    (moe, "encode", "moe.encode", None, None),
    (moe, "fact_features", "moe.fact_features", None, None),
    (moe, "moe_forward", "moe.moe_forward", _gate_rows, None),
    (moe, "frg_forward", "moe.frg_forward", None, None),
    (moe, "qa_forward", "moe.qa_forward", None, None),
    (moe, "losses", "moe.losses", None, None),
    (moe, "build_lexicon", "moe.build_lexicon", None, None),
    (moe, "batch_gradients", "moe.batch_gradients", None, None),
    (moe, "backward_and_step", "moe.backward_and_step", lambda a: a[2], None),
    (cli, "cli_dispatch", "cli.cli_dispatch", None, None),
]


# --- per-module metrics ---------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _per(count: float, base: float) -> float:
    return count / base if base else 0.0


def layer_metrics(spans: list[Span], manifest: dict) -> dict[str, float]:
    """Per-module figures of one traced run; absent work reads 0.

    A span's self time is its duration minus its children's, which run
    nested on its own thread.
    """
    by_name: dict[str, list[Span]] = {}
    child_time: dict[int, float] = {}
    parent_of: dict[int, Optional[int]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        parent_of[s.id] = s.parent
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.end - s.start for s in named(name))

    def self_time(s: Span) -> float:
        return s.end - s.start - child_time.get(s.id, 0.0)

    def self_total(name: str) -> float:
        return sum(self_time(s) for s in named(name))

    m: dict[str, float] = {
        "pipeline.stage1_s": total("pipeline.stage1_states"),
        "pipeline.train_s": total("pipeline.train"),
        "pipeline.infer_s": self_total("pipeline.predict_pending"),
        "pipeline.feedback_s": self_total("pipeline.run_feedback_iteration"),
        "pipeline.failed": float(len(manifest["failed"])),
    }

    calls = named("llm.complete")
    m["llm.calls"] = float(len(calls))
    for tag in llm.TEMPLATES:
        m[f"llm.calls.{tag}"] = float(sum(1 for s in calls if s.info[0] == tag))
    durations = [s.end - s.start for s in calls]
    busy = _union_length([(s.start, s.end) for s in calls])
    m["llm.busy_s"] = busy
    m["llm.call_ms.p50"] = _percentile(durations, 50) * 1e3
    m["llm.call_ms.p99"] = _percentile(durations, 99) * 1e3
    m["llm.inflight_mean"] = _per(sum(durations), busy)
    m["llm.unique_prompt_ratio"] = _per(len({s.info for s in calls}), len(calls))
    retries = 0
    last_on_thread: dict[int, Span] = {}
    for s in sorted(calls, key=lambda s: s.start):
        previous = last_on_thread.get(s.thread)
        retries += previous is not None and previous.info == s.info
        last_on_thread[s.thread] = s
    m["llm.retries"] = float(retries)
    m["llm.errors"] = float(sum(1 for s in calls if s.error))

    m["facts.retrieve_s"] = total("facts.retrieve_evidence")
    m["refine.self_s"] = self_total("refine.refine")
    m["refine.tree_to_text_s"] = total("refine.tree_to_text")
    m["tree.parse_s"] = total("tree.parse_tree")
    m["tree.serialize_s"] = total("tree.serialize_tree")

    steps = named("moe.backward_and_step")
    step_ids = {s.id for s in steps}
    m["moe.step_ms.p50"] = _percentile([s.end - s.start for s in steps], 50) * 1e3
    m["moe.step_ms.p95"] = _percentile([s.end - s.start for s in steps], 95) * 1e3
    grads = [s.end - s.start for s in named("moe.batch_gradients")]
    m["moe.grad_ms.p50"] = _percentile(grads, 50) * 1e3
    m["moe.adamw_ms.p50"] = _percentile([self_time(s) for s in steps], 50) * 1e3
    m["moe.items_per_step"] = _per(sum(len(s.info) for s in steps), len(steps))
    routed = sum(
        len(moe.tokenize(item.tree_text)) + len(moe.tokenize(item.question))
        for s in steps
        for item in s.info
    )
    m["moe.tokens_per_step"] = _per(routed, len(steps))

    def under_step(s: Span) -> bool:
        node = s.parent
        while node is not None:
            if node in step_ids:
                return True
            node = parent_of.get(node)
        return False

    tokenize = named("moe.token_ids")
    m["moe.tokenize_calls_per_step"] = _per(
        sum(1 for s in tokenize if under_step(s)), len(steps)
    )
    m["moe.tokenize_unique_ratio"] = _per(len({s.info for s in tokenize}), len(tokenize))

    for short in ("encode", "fact_features", "moe_forward", "frg_forward",
                  "qa_forward", "losses", "build_lexicon"):
        m[f"moe.{short}_s"] = total(f"moe.{short}")
    versions = sum(s.info for s in named("pipeline.predict_pending") if not s.error)
    m["moe.versions_decoded"] = float(versions)
    for short in ("frg_forward", "fact_features", "build_lexicon"):
        m[f"moe.{short}_per_version"] = _per(len(named(f"moe.{short}")), versions)
    for gate in (moe.GATE_A, moe.GATE_B):
        m[f"moe.route_tokens.{gate}"] = float(
            sum(s.info[1] for s in named("moe.moe_forward") if s.info[0] == gate)
        )

    writes = named("dataset.write_json")
    m["dataset.load_s"] = total("dataset.load_dataset")
    m["dataset.write_s"] = total("dataset.write_json")
    m["dataset.write_files"] = float(len(writes))
    m["dataset.write_bytes"] = float(sum(os.path.getsize(s.info) for s in writes))
    m["cli.self_s"] = self_total("cli.cli_dispatch")
    m["trace.spans"] = float(len(spans))
    return m
