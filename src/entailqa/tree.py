"""Entailment tree DSL: parse, validate, serialize, and score.

A tree is written as semicolon-separated steps, e.g.::

    fact1 & fact2 -> int1: both clues point the same way; int1 & fact3 -> answer

Leaves are ``fact<k>`` ids, intermediate conclusions are ``int<k>``, and the
root is the literal ``answer`` placeholder. Grammar::

    tree := step (";" step)*
    step := id ("&" id)* "->" id (":" text)?

All values here are immutable; every constructor validates the full set of
tree invariants, so a constructed ``EntailmentTree`` is always well formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import StructureError, TreeSyntaxError
from .metrics import normalize_answer

MAX_NODES = 64

LEAF = "leaf"
INTERMEDIATE = "intermediate"
ROOT = "root"

_KIND_RANK = {LEAF: 0, INTERMEDIATE: 1, ROOT: 2}
_ID_RE = re.compile(r"(fact|int)([1-9][0-9]*)")
# A ';' directly followed by something shaped like a new step starts the next
# step; any other ';' belongs to the preceding conclusion text.
_STEP_BOUNDARY = re.compile(
    r";(?=\s*(?:fact|int)[0-9]+\s*(?:&\s*(?:fact|int)[0-9]+\s*)*->)"
)


@dataclass(frozen=True, order=True)
class NodeId:
    """Identifier of a tree node; renders as fact<k>, int<k>, or answer."""

    sort_rank: int = field(init=False, repr=False)
    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise StructureError(f"unknown node kind: {self.kind!r}")
        if self.kind != ROOT and self.index < 1:
            raise StructureError(f"node index must be >= 1, got {self.index}")
        object.__setattr__(self, "sort_rank", _KIND_RANK[self.kind])

    def render(self) -> str:
        if self.kind == ROOT:
            return "answer"
        prefix = "fact" if self.kind == LEAF else "int"
        return f"{prefix}{self.index}"

    def __str__(self) -> str:
        return self.render()


ANSWER = NodeId(ROOT)


def leaf_id(k: int) -> NodeId:
    return NodeId(LEAF, k)


def intermediate_id(k: int) -> NodeId:
    return NodeId(INTERMEDIATE, k)


def parse_node_id(token: str) -> NodeId:
    t = token.strip()
    if t == "answer":
        return ANSWER
    m = _ID_RE.fullmatch(t)
    if m is None:
        raise TreeSyntaxError(f"bad node id: {token!r}")
    kind = LEAF if m.group(1) == "fact" else INTERMEDIATE
    return NodeId(kind, int(m.group(2)))


def _check_text(text: Optional[str]) -> None:
    """Conclusion texts must not be mistakable for a step boundary."""
    if text is None:
        return
    if _STEP_BOUNDARY.search(text) or text.rstrip().endswith(";"):
        raise StructureError(
            f"conclusion text would break the step grammar: {text!r}"
        )


@dataclass(frozen=True)
class EntailmentStep:
    """One entailment: the premises jointly entail the conclusion."""

    premises: tuple[NodeId, ...]
    conclusion: NodeId
    conclusion_text: Optional[str] = None

    def __post_init__(self):
        if not self.premises:
            raise StructureError("step has no premises")
        if len(set(self.premises)) != len(self.premises):
            raise StructureError(f"duplicate premise in step -> {self.conclusion}")
        if self.conclusion.kind == LEAF:
            raise StructureError(f"leaf id used as conclusion: {self.conclusion}")
        if self.conclusion in self.premises:
            raise StructureError(f"step concludes one of its own premises: {self.conclusion}")
        _check_text(self.conclusion_text)


@dataclass(frozen=True)
class TreeScore:
    """Per-facet 0/1 agreement between a predicted and a gold tree."""

    leaves_correct: int
    steps_correct: int
    intermediates_correct: int
    all_correct: int


@dataclass(frozen=True)
class EntailmentTree:
    """hypothesis + leaves (id -> optional text) + ordered entailment steps.

    Intermediate node texts live on the step that concludes them; a tree with
    some texts still ``None`` is a structure-only tree awaiting refinement.
    """

    hypothesis: str
    leaves: dict[NodeId, Optional[str]]
    steps: tuple[EntailmentStep, ...]

    def __post_init__(self):
        self._validate()

    # -- invariants ----------------------------------------------------------

    def _validate(self) -> None:
        if not self.steps:
            raise StructureError("tree has no steps")
        concluded: set[NodeId] = set()
        usage: dict[NodeId, int] = {}
        for step in self.steps:
            if step.conclusion in concluded:
                raise StructureError(f"duplicate conclusion: {step.conclusion}")
            for p in step.premises:
                if p.kind == ROOT:
                    raise StructureError("answer used as a premise")
                if p.kind == LEAF and p not in self.leaves:
                    raise StructureError(f"premise {p} missing from leaves")
                if p.kind == INTERMEDIATE and p not in concluded:
                    raise StructureError(
                        f"premise {p} used before it is concluded"
                    )
                usage[p] = usage.get(p, 0) + 1
            concluded.add(step.conclusion)
        roots = [s for s in self.steps if s.conclusion.kind == ROOT]
        if len(roots) != 1:
            raise StructureError(
                f"exactly one step must conclude answer, found {len(roots)}"
            )
        for leaf in self.leaves:
            if leaf.kind != LEAF:
                raise StructureError(f"non-leaf id in leaves: {leaf}")
            if usage.get(leaf, 0) != 1:
                raise StructureError(
                    f"{leaf} must appear as a premise exactly once, "
                    f"found {usage.get(leaf, 0)}"
                )
        for node in concluded:
            if node.kind == INTERMEDIATE and usage.get(node, 0) != 1:
                raise StructureError(
                    f"{node} must feed exactly one step, found {usage.get(node, 0)}"
                )
        n_nodes = len(self.leaves) + len(concluded)
        if n_nodes > MAX_NODES:
            raise StructureError(f"tree has {n_nodes} nodes, limit is {MAX_NODES}")

    # -- accessors -----------------------------------------------------------

    def step_for(self, conclusion: NodeId) -> EntailmentStep:
        for s in self.steps:
            if s.conclusion == conclusion:
                return s
        raise KeyError(conclusion)

    def node_text(self, node: NodeId) -> Optional[str]:
        if node.kind == LEAF:
            return self.leaves[node]
        return self.step_for(node).conclusion_text

    def depths(self) -> dict[NodeId, int]:
        """Distance from the root (root = 0)."""
        by_conclusion = {s.conclusion: s for s in self.steps}
        out = {ANSWER: 0}
        stack = [ANSWER]
        while stack:
            node = stack.pop()
            step = by_conclusion.get(node)
            if step is None:
                continue
            for p in step.premises:
                out[p] = out[node] + 1
                stack.append(p)
        return out

    def structurally_equal(self, other: "EntailmentTree") -> bool:
        """Identity up to step order and premise order within a step."""
        if set(self.leaves) != set(other.leaves):
            return False
        if any(self.leaves[k] != other.leaves[k] for k in self.leaves):
            return False
        mine = {
            s.conclusion: (frozenset(s.premises), s.conclusion_text)
            for s in self.steps
        }
        theirs = {
            s.conclusion: (frozenset(s.premises), s.conclusion_text)
            for s in other.steps
        }
        return mine == theirs

    # -- JSON form -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dsl": serialize_tree(self),
            "hypothesis": self.hypothesis,
            "steps": [
                {
                    "premises": [p.render() for p in s.premises],
                    "conclusion": s.conclusion.render(),
                    "text": s.conclusion_text,
                }
                for s in self.steps
            ],
            "leaf_texts": {
                leaf.render(): text
                for leaf, text in sorted(self.leaves.items())
            },
        }


# --- parsing ------------------------------------------------------------------


def parse_tree(text: str, hypothesis: str = "") -> EntailmentTree:
    """Parse DSL text into a validated tree.

    Raises TreeSyntaxError for malformed tokens/steps and StructureError for
    grammatical-but-invalid trees (cycles, reuse, missing root, ...).
    """
    if not isinstance(text, str) or not text.strip():
        raise TreeSyntaxError("empty tree text")
    body = text.strip()
    if body.endswith(";"):
        body = body[:-1].rstrip()
    if not body:
        raise TreeSyntaxError("empty tree text")

    steps = []
    for segment in _STEP_BOUNDARY.split(body):
        segment = segment.strip()
        if not segment:
            raise TreeSyntaxError("empty step")
        steps.append(_parse_step(segment))

    leaves: dict[NodeId, Optional[str]] = {}
    for step in steps:
        for p in step.premises:
            if p.kind == LEAF:
                leaves.setdefault(p, None)
    return EntailmentTree(hypothesis=hypothesis, leaves=leaves, steps=tuple(steps))


def _parse_step(segment: str) -> EntailmentStep:
    head, arrow, tail = segment.partition("->")
    if not arrow:
        raise TreeSyntaxError(f"step missing '->': {segment!r}")
    premises = tuple(parse_node_id(tok) for tok in head.split("&"))
    conclusion_part = tail.strip()
    if not conclusion_part:
        raise TreeSyntaxError(f"step missing conclusion: {segment!r}")
    ident, colon, text = conclusion_part.partition(":")
    conclusion = parse_node_id(ident)
    conclusion_text: Optional[str] = None
    if colon:
        conclusion_text = text.strip()
        if not conclusion_text:
            raise TreeSyntaxError(f"empty conclusion text in step: {segment!r}")
    return EntailmentStep(premises, conclusion, conclusion_text)


# --- serialization --------------------------------------------------------------


def canonical_steps(tree: EntailmentTree) -> list[EntailmentStep]:
    """The steps children-before-parents: deepest conclusion first, ties by id."""
    depths = tree.depths()
    return sorted(
        tree.steps, key=lambda s: (-depths[s.conclusion], s.conclusion)
    )


def serialize_tree(tree: EntailmentTree, include_texts: bool = True) -> str:
    """Canonical printer: steps children-before-parents, premises in id order."""
    parts = []
    for step in canonical_steps(tree):
        lhs = " & ".join(p.render() for p in sorted(step.premises))
        rhs = step.conclusion.render()
        if include_texts and step.conclusion_text is not None:
            rhs = f"{rhs}: {step.conclusion_text}"
        parts.append(f"{lhs} -> {rhs}")
    return "; ".join(parts)


# --- scoring --------------------------------------------------------------------


def _align_leaves(pred: EntailmentTree, gold: EntailmentTree) -> dict[NodeId, NodeId]:
    """Map each predicted leaf onto a gold leaf by exact text, else identity."""
    by_text: dict[str, list[NodeId]] = {}
    for leaf, text in sorted(gold.leaves.items()):
        if text:
            by_text.setdefault(text, []).append(leaf)
    aligned: dict[NodeId, NodeId] = {}
    for leaf, text in sorted(pred.leaves.items()):
        pool = by_text.get(text or "")
        aligned[leaf] = pool.pop(0) if pool else leaf
    return aligned


def _signature(
    tree: EntailmentTree,
    node: NodeId,
    align: dict[NodeId, NodeId],
    with_texts: bool = False,
) -> str:
    """Canonical form of the subtree at ``node``: premise order and
    intermediate numbering are erased; with_texts folds in the normalized
    intermediate texts (the root's answer text is never part of it)."""
    if node.kind == LEAF:
        return f"L:{align.get(node, node).render()}"
    children = tree.step_for(node).premises
    inner = ",".join(
        sorted(_signature(tree, c, align, with_texts) for c in children)
    )
    label = ""
    if with_texts and node.kind == INTERMEDIATE:
        label = ":" + normalize_answer(tree.node_text(node) or "")
    return f"N{label}({inner})"


def score_tree(pred: EntailmentTree, gold: EntailmentTree) -> TreeScore:
    """Leaves / steps / intermediates agreement per the all-correct convention.

    Intermediates are matched structurally (their numbering is arbitrary),
    texts are compared after answer normalization; the root text is the
    answer placeholder's content and is not scored here.
    """
    align = _align_leaves(pred, gold)
    pred_leaf_ids = {align[leaf] for leaf in pred.leaves}
    leaves_correct = int(pred_leaf_ids == set(gold.leaves))

    steps_correct = int(
        _signature(pred, ANSWER, align) == _signature(gold, ANSWER, {})
    )
    intermediates_correct = int(
        steps_correct
        and _signature(pred, ANSWER, align, with_texts=True)
        == _signature(gold, ANSWER, {}, with_texts=True)
    )
    all_correct = int(leaves_correct and steps_correct and intermediates_correct)
    return TreeScore(leaves_correct, steps_correct, intermediates_correct, all_correct)


def leaf_preorder(tree: EntailmentTree) -> list[NodeId]:
    """Leaf ids in root-to-leaf, left-to-right order (FRG target order)."""
    out: list[NodeId] = []

    def visit(node: NodeId) -> None:
        if node.kind == LEAF:
            out.append(node)
            return
        for p in tree.step_for(node).premises:
            visit(p)

    visit(ANSWER)
    return out
