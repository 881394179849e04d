"""Fill the node texts of a structure-only entailment tree.

Leaf nodes take their fact text from the fact base; every other node's text
is inferred from its children's, all of them in one backend call. The root
keeps the answer placeholder id with an inferred text, which is never
treated as the predicted answer.
"""

from __future__ import annotations

from typing import Iterable

from .errors import MissingText
from .facts import FactBase, lookup_text
from .llm import Backend, infer_conclusions
from .tree import EntailmentStep, EntailmentTree, NodeId, canonical_steps


def refine(
    structure: EntailmentTree,
    base: FactBase,
    backend: Backend,
    earlier: Iterable[EntailmentTree] = (),
) -> EntailmentTree:
    """Return a fully-texted copy of ``structure``; the input is not mutated.

    Its conclusions are asked for in one ``infer_conclusions`` call. A step
    whose ordered premise texts a step of a filled tree in ``earlier``
    already has takes that step's conclusion unasked, and one whose premises
    equal those of a step asked for shares its entry.

    Raises UnknownFactId when a leaf is not in the base; backend failures
    propagate.
    """
    leaves = {leaf: lookup_text(base, leaf) for leaf in structure.leaves}
    inferred = {
        tuple(map(tree.node_text, step.premises)): step.conclusion_text
        for tree in earlier
        for step in tree.steps
    }
    # each node's text, or the number of the asked step that concludes it
    known: dict[NodeId, str | int] = dict(leaves)
    asked: dict[tuple[str | int, ...], int] = {}
    for step in canonical_steps(structure):
        premises = tuple(known[p] for p in step.premises)
        if premises in inferred:
            known[step.conclusion] = inferred[premises]
        else:
            known[step.conclusion] = asked.setdefault(premises, len(asked) + 1)
    conclusions = infer_conclusions(backend, list(asked)) if asked else []
    texts = {node: v if isinstance(v, str) else conclusions[v - 1] for node, v in known.items()}
    steps = tuple(
        EntailmentStep(s.premises, s.conclusion, texts[s.conclusion]) for s in structure.steps
    )
    return EntailmentTree(hypothesis=structure.hypothesis, leaves=leaves, steps=steps)


def tree_to_text(tree: EntailmentTree) -> str:
    """Deterministic natural-language rendering of a filled tree.

    One sentence per step in children-before-parents order; the last sentence
    concludes with the root text.
    """
    sentences = []
    for step in canonical_steps(tree):
        parts = []
        for p in step.premises:
            text = tree.node_text(p)
            if not text:
                raise MissingText(f"{p} has no text")
            parts.append(text)
        conclusion_text = step.conclusion_text
        if not conclusion_text:
            raise MissingText(f"{step.conclusion} has no text")
        sentences.append(
            f"because {' and '.join(parts)}, we conclude {conclusion_text}."
        )
    return " ".join(sentences)
