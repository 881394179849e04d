"""Fill the node texts of a structure-only entailment tree.

The structure is split into one subtree per internal node (children before
parents); leaf nodes take their fact text from the fact base, every other
node's text is inferred from its already-filled children via the backend,
and the filled subtrees are merged back into one complete tree. The root
keeps the answer placeholder id with an inferred text, which is never
treated as the predicted answer.
"""

from __future__ import annotations

from typing import Iterable

from .errors import MissingText
from .facts import FactBase, lookup_text
from .llm import Backend, infer_intermediate
from .tree import (
    LEAF,
    EntailmentStep,
    EntailmentTree,
    NodeId,
    split_subtrees,
)


def refine(
    structure: EntailmentTree,
    base: FactBase,
    backend: Backend,
    earlier: Iterable[EntailmentTree] = (),
) -> EntailmentTree:
    """Return a fully-texted copy of ``structure``; the input is not mutated.

    A step whose ordered premise texts a step of a filled tree in
    ``earlier``, or an earlier step of this one, already has takes that
    step's conclusion without a backend call.

    Raises UnknownFactId when a leaf is not in the base; backend failures
    propagate.
    """
    texts: dict[NodeId, str] = {}
    for leaf in structure.leaves:
        texts[leaf] = lookup_text(base, leaf)

    inferred = {
        tuple(map(tree.node_text, step.premises)): step.conclusion_text
        for tree in earlier
        for step in tree.steps
    }
    # children-before-parents order guarantees premises are filled on arrival
    conclusion_texts: dict[NodeId, str] = {}
    for conclusion, premises in split_subtrees(structure):
        premise_texts = tuple(
            texts[p] if p.kind == LEAF else conclusion_texts[p] for p in premises
        )
        if premise_texts not in inferred:
            inferred[premise_texts] = infer_intermediate(backend, list(premise_texts))
        conclusion_texts[conclusion] = inferred[premise_texts]

    steps = tuple(
        EntailmentStep(s.premises, s.conclusion, conclusion_texts[s.conclusion])
        for s in structure.steps
    )
    return EntailmentTree(
        hypothesis=structure.hypothesis,
        leaves={leaf: texts[leaf] for leaf in structure.leaves},
        steps=steps,
    )


def tree_to_text(tree: EntailmentTree) -> str:
    """Deterministic natural-language rendering of a filled tree.

    One sentence per step in children-before-parents order; the last sentence
    concludes with the root text.
    """
    sentences = []
    for conclusion, premises in split_subtrees(tree):
        parts = []
        for p in premises:
            text = tree.node_text(p)
            if not text:
                raise MissingText(f"{p} has no text")
            parts.append(text)
        conclusion_text = tree.node_text(conclusion)
        if not conclusion_text:
            raise MissingText(f"{conclusion} has no text")
        sentences.append(
            f"because {' and '.join(parts)}, we conclude {conclusion_text}."
        )
    return " ".join(sentences)
