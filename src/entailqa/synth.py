"""Seeded generators: random valid entailment trees and a synthetic QA corpus.

The corpus mimics the shape of the real datasets at desk scale: every example
carries one or two gold facts phrased as attribute sentences, a handful of
distractor facts about other entities, text evidence holding those sentences,
a gold answer, gold support ids, and a gold tree written against the fact ids
the deterministic stage-1 run will assign.
"""

from __future__ import annotations

import random

from .dataset import QAExample, RunConfig, dataset_from_dict
from .facts import Evidence, retrieve_evidence
from .tree import (
    ANSWER,
    MAX_NODES,
    EntailmentStep,
    EntailmentTree,
    NodeId,
    intermediate_id,
    leaf_id,
    parse_tree,
    serialize_tree,
)

_WORDS = (
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet", "harbor",
    "iris", "juniper", "kelp", "lagoon", "maple", "nectar", "onyx", "prairie",
    "quartz", "reef", "saffron", "tundra", "umber", "violet", "willow", "zephyr",
)

_ENTITIES = (
    "falcon", "harbor", "lantern", "meadow", "glacier", "orchard", "canyon",
    "beacon", "mill", "vineyard", "quarry", "lighthouse",
)
_ATTRIBUTES = (
    "color", "size", "origin", "material", "shape", "age", "texture", "sound",
)
_LINKS = (
    "crimson", "granite", "cobalt", "ivory", "bronze", "scarlet", "obsidian",
    "pearl",
)
_VALUES = (
    "vast", "ancient", "silver", "smooth", "round", "hollow", "bright", "deep",
    "quiet", "warm", "narrow", "steep",
)


def random_sentence(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 6))) + "."


def random_tree(
    rng: random.Random,
    max_depth: int = 5,
    max_leaves: int = 10,
    texts: str = "conclusions",
) -> EntailmentTree:
    """A structurally valid random tree.

    ``texts``: "none" leaves every text unset, "conclusions" fills only
    intermediate/root texts (what the DSL serializes), "full" also fills
    leaf texts. Raises ``ValueError``, before any draw, when a tree of
    ``max_leaves`` leaves each under its own chain of one-child steps would
    exceed ``MAX_NODES``.
    """
    if max_leaves * max_depth + 1 > MAX_NODES:
        raise ValueError(f"max_leaves * max_depth + 1 exceeds MAX_NODES ({MAX_NODES})")
    leaf_budget = rng.randint(1, max_leaves)
    leaf_counter = [0]
    int_counter = [0]
    steps: list[EntailmentStep] = []

    def build(depth: int, budget: int) -> tuple[NodeId, int]:
        """The node at ``depth`` (0 is the root) and its leaf count."""
        if depth and (depth >= max_depth or budget == 1 or rng.random() < 0.35):
            leaf_counter[0] += 1
            return leaf_id(leaf_counter[0]), 1
        n_children = rng.randint(1, min(3, budget))
        children = []
        used = 0
        for i in range(n_children):
            reserve = n_children - i - 1
            child, n_leaves = build(depth + 1, budget - used - reserve)
            children.append(child)
            used += n_leaves
        if depth:
            int_counter[0] += 1
            node = intermediate_id(int_counter[0])
        else:
            node = ANSWER
        text = random_sentence(rng) if texts in ("conclusions", "full") else None
        steps.append(EntailmentStep(tuple(children), node, text))
        return node, used

    build(0, leaf_budget)
    leaves = {
        leaf_id(i): random_sentence(rng) if texts == "full" else None
        for i in range(1, leaf_counter[0] + 1)
    }
    return EntailmentTree(hypothesis="", leaves=leaves, steps=tuple(steps))


# --- synthetic QA corpus --------------------------------------------------------------


_DISTRACTORS = 3  # distractor sentences per example
_TWO_HOP_FRACTION = 0.5


def synthetic_corpus(
    n_examples: int, seed: int = 0, retrieval_top_n: int = RunConfig.retrieval_top_n
) -> dict:
    """Dataset-JSON dict of attribute-lookup questions with gold trees.

    Gold trees reference the fact ids that the deterministic retrieval order
    assigns, so stage 1 under the mock backend reconstructs them exactly.
    """
    rng = random.Random(seed)
    examples = []
    for i in range(n_examples):
        two_hop = rng.random() < _TWO_HOP_FRACTION
        entity = rng.choice(_ENTITIES)
        attr1 = rng.choice(_ATTRIBUTES)
        used_attrs = {attr1}
        value = rng.choice(_VALUES)
        if two_hop:
            link = rng.choice(_LINKS)
            attr2 = rng.choice([a for a in _ATTRIBUTES if a != attr1])
            used_attrs.add(attr2)
            gold_sentences = [
                f"the {attr1} of the {entity} is {link}.",
                f"the {attr2} of the {link} is {value}.",
            ]
            question = f"what is the {attr2} of the {attr1} of the {entity}?"
        else:
            gold_sentences = [f"the {attr1} of the {entity} is {value}."]
            question = f"what is the {attr1} of the {entity}?"

        sentences = list(gold_sentences)
        for _ in range(_DISTRACTORS):
            attr_d = rng.choice([a for a in _ATTRIBUTES if a not in used_attrs])
            entity_d = rng.choice([e for e in _ENTITIES if e != entity])
            value_d = rng.choice(_VALUES)
            sentences.append(f"the {attr_d} of the {entity_d} is {value_d}.")

        order = list(range(len(sentences)))
        rng.shuffle(order)
        evidence = [
            {
                "id": f"e{pos + 1}",
                "modality": "text",
                "content": sentences[order[pos]],
            }
            for pos in range(len(order))
        ]
        gold_ids = [
            f"e{pos + 1}"
            for pos in range(len(order))
            if order[pos] < len(gold_sentences)
        ]

        # replay the deterministic retrieval to learn the stage-1 fact ids
        candidates = [
            Evidence(id=ev["id"], modality="text", content=ev["content"])
            for ev in evidence
        ]
        ranked = retrieve_evidence(question, candidates, retrieval_top_n)
        rank_of = {ev.id: pos + 1 for pos, ev in enumerate(ranked)}
        gold_ranks = sorted(rank_of[g] for g in gold_ids if g in rank_of)
        if len(gold_ranks) != len(gold_ids):
            raise AssertionError("gold evidence fell outside the retrieval cut")
        if len(gold_ranks) == 1:
            gold_tree = f"fact{gold_ranks[0]} -> answer"
        else:
            gold_tree = (
                f"fact{gold_ranks[0]} & fact{gold_ranks[1]} -> answer"
            )

        examples.append(
            {
                "id": f"syn{i:04d}",
                "question": question,
                "answer": value,
                "evidence": evidence,
                "gold_support_ids": gold_ids,
                "gold_tree": gold_tree,
            }
        )
    return {"examples": examples}


def synthetic_examples(n_examples: int, seed: int = 0) -> list[QAExample]:
    return dataset_from_dict(synthetic_corpus(n_examples, seed))


def corrupted_tree_scripts(
    examples: list[QAExample],
    corrupt_fraction: float = 0.3,
    seed: int = 0,
    base_size: int = 4,
) -> tuple[dict[str, str], set[str]]:
    """Scripted initial-tree table: gold trees with one wrong leaf injected
    into a seeded fraction of examples. Returns (scripts, corrupted ids)."""
    rng = random.Random(seed)
    scripts: dict[str, str] = {}
    corrupted: set[str] = set()
    for example in examples:
        gold = example.gold_tree
        if gold is None:
            continue
        tree = parse_tree(gold)
        if rng.random() < corrupt_fraction:
            leaf_indices = sorted(leaf.index for leaf in tree.leaves)
            victim = leaf_id(rng.choice(leaf_indices))
            replacement = leaf_id(
                rng.choice(
                    [k for k in range(1, base_size + 1) if k not in leaf_indices]
                )
            )
            steps = tuple(
                EntailmentStep(
                    tuple(replacement if p == victim else p for p in s.premises),
                    s.conclusion,
                    s.conclusion_text,
                )
                for s in tree.steps
            )
            leaves = {
                (replacement if leaf == victim else leaf): text
                for leaf, text in tree.leaves.items()
            }
            wrong = EntailmentTree(hypothesis="", leaves=leaves, steps=steps)
            scripts[example.id] = serialize_tree(wrong)
            corrupted.add(example.id)
        else:
            scripts[example.id] = gold
    return scripts, corrupted
